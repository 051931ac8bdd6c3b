#include "specs.hpp"

#include "support/json.hpp"

namespace perfbench {

alge::engine::ExperimentSpec spec_from(const std::string& fragment,
                                       const alge::core::MachineParams& params,
                                       std::uint64_t seed) {
  namespace json = alge::json;
  alge::engine::ExperimentSpec base;
  base.params = params;
  base.seed = seed;
  const json::Value over = json::parse(fragment);
  json::Value merged = json::Value::object();
  const json::Value defaults = base.to_json();
  for (const auto& [key, val] : defaults.as_object()) {
    const json::Value* o = over.find(key);
    merged.set(key, o == nullptr ? val : *o);
  }
  for (const auto& [key, val] : over.as_object()) {
    if (merged.find(key) == nullptr) merged.set(key, val);
  }
  return alge::engine::ExperimentSpec::from_json(merged);
}

}  // namespace perfbench
