// ExperimentSpec helpers shared by the engine-driven workloads. Specs are
// written as JSON fragments, the engine's stable interface: a fragment is
// overlaid on the default spec's encoding and decoded by
// ExperimentSpec::from_json, exactly as a caller outside the library would.
#pragma once

#include <string>

#include "core/params.hpp"
#include "engine/job.hpp"

namespace perfbench {

/// Decode `fragment` (a JSON object naming only the fields that differ from
/// the default spec; "params" is replaced whole) with `params` and `seed`.
alge::engine::ExperimentSpec spec_from(const std::string& fragment,
                                       const alge::core::MachineParams& params,
                                       std::uint64_t seed);

}  // namespace perfbench
