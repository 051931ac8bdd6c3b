#include "obs/bench_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "support/common.hpp"

namespace alge::obs {

namespace {

constexpr const char* kFields[] = {"name", "metric", "value",
                                   "unit", "better", "kind"};

const json::Value& field(const json::Value& rec, int index, const char* key,
                         json::Value::Kind kind) {
  const json::Value* v = rec.find(key);
  if (v == nullptr) {
    throw bench_schema_error(index, strfmt("missing field \"%s\"", key));
  }
  if (v->kind() != kind) {
    throw bench_schema_error(
        index, strfmt("field \"%s\" must be a %s", key,
                      kind == json::Value::Kind::kNumber ? "number"
                                                         : "string"));
  }
  return *v;
}

BenchRecord read_record(const json::Value& rec, int index) {
  if (!rec.is_object()) throw bench_schema_error(index, "not an object");
  for (const auto& [key, value] : rec.as_object()) {
    if (std::find_if(std::begin(kFields), std::end(kFields),
                     [&](const char* f) { return key == f; }) ==
        std::end(kFields)) {
      throw bench_schema_error(index,
                               strfmt("unknown field \"%s\"", key.c_str()));
    }
  }
  using K = json::Value::Kind;
  BenchRecord r;
  r.name = field(rec, index, "name", K::kString).as_string();
  r.metric = field(rec, index, "metric", K::kString).as_string();
  r.value = field(rec, index, "value", K::kNumber).as_double();
  r.unit = field(rec, index, "unit", K::kString).as_string();
  const std::string& better = field(rec, index, "better", K::kString).as_string();
  const std::string& kind = field(rec, index, "kind", K::kString).as_string();
  if (better == "lower") {
    r.better = Better::kLower;
  } else if (better == "higher") {
    r.better = Better::kHigher;
  } else if (better == "none") {
    r.better = Better::kNone;
  } else {
    throw bench_schema_error(
        index, strfmt("\"better\" must be lower, higher or none (got \"%s\")",
                      better.c_str()));
  }
  if (kind == "exact") {
    r.kind = Kind::kExact;
  } else if (kind == "wall") {
    r.kind = Kind::kWall;
  } else {
    throw bench_schema_error(
        index,
        strfmt("\"kind\" must be exact or wall (got \"%s\")", kind.c_str()));
  }
  if (r.name.empty() || r.metric.empty()) {
    throw bench_schema_error(index, "empty \"name\" or \"metric\"");
  }
  return r;
}

std::string key_of(const std::string& bench, const BenchRecord& r) {
  return bench + "." + r.name + "." + r.metric;
}

}  // namespace

const char* to_string(Better b) {
  switch (b) {
    case Better::kLower:
      return "lower";
    case Better::kHigher:
      return "higher";
    default:
      return "none";
  }
}

const char* to_string(Kind k) { return k == Kind::kWall ? "wall" : "exact"; }

BenchFile read_bench_file(const json::Value& doc) {
  const json::Value* bench = doc.is_object() ? doc.find("bench") : nullptr;
  const json::Value* records = doc.is_object() ? doc.find("records") : nullptr;
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty() ||
      records == nullptr || !records->is_array() ||
      doc.as_object().size() != 2) {
    throw bench_schema_error(
        -1, "not a bench file: expected exactly {\"bench\": NAME, "
            "\"records\": [...]}");
  }
  BenchFile f;
  f.bench = bench->as_string();
  std::set<std::pair<std::string, std::string>> seen;
  int index = 0;
  for (const json::Value& rec : records->as_array()) {
    BenchRecord r = read_record(rec, index);
    if (!seen.emplace(r.name, r.metric).second) {
      throw bench_schema_error(
          index, strfmt("duplicate (name, metric) (\"%s\", \"%s\")",
                        r.name.c_str(), r.metric.c_str()));
    }
    f.records.push_back(std::move(r));
    ++index;
  }
  return f;
}

BenchDiff diff_bench_files(const BenchFile& base, const BenchFile& current,
                           double wall_factor) {
  ALGE_REQUIRE(wall_factor == 0.0 || wall_factor >= 1.0,
               "wall factor must be 0 (off) or >= 1 (got %g)", wall_factor);
  std::map<std::string, const BenchRecord*> cur;
  for (const BenchRecord& r : current.records) {
    cur.emplace(key_of(current.bench, r), &r);
  }
  BenchDiff diff;
  diff.wall_factor = wall_factor;
  std::map<std::string, const BenchRecord*> b;
  for (const BenchRecord& r : base.records) b.emplace(key_of(base.bench, r), &r);
  for (const auto& [key, rb] : b) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      diff.only_base.push_back(key);
      continue;
    }
    MetricDiff m;
    m.key = key;
    m.base = rb->value;
    m.current = it->second->value;
    m.better = rb->better;
    m.kind = rb->kind;
    if (m.base != 0.0) {
      m.rel_change = (m.current - m.base) / std::abs(m.base);
    } else if (m.current != 0.0) {
      m.rel_change = m.current > 0.0
                         ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity();
    }
    // The gate as bounds on rel_change: exact values move by at most the
    // tolerance either way; wall values by at most the factor, so a time
    // F× higher and a rate F× lower both cross it.
    const bool gated = m.better != Better::kNone &&
                       (m.kind == Kind::kExact || wall_factor > 0.0);
    if (gated) {
      const double up =
          m.kind == Kind::kExact ? kExactTolerance : wall_factor - 1.0;
      const double down =
          m.kind == Kind::kExact ? -kExactTolerance : 1.0 / wall_factor - 1.0;
      const bool rose = m.rel_change > up;
      const bool fell = m.rel_change < down;
      m.regression = m.better == Better::kLower ? rose : fell;
      m.improvement = m.better == Better::kLower ? fell : rose;
    }
    diff.regressions += m.regression ? 1 : 0;
    diff.improvements += m.improvement ? 1 : 0;
    diff.metrics.push_back(std::move(m));
    cur.erase(it);
  }
  for (const auto& [key, rc] : cur) diff.only_current.push_back(key);
  return diff;
}

std::string render_diff(const BenchDiff& diff, bool verbose) {
  std::string out;
  for (const MetricDiff& m : diff.metrics) {
    const char* tag = m.regression    ? "REGRESSION"
                      : m.improvement ? "improved"
                                      : "ok";
    if (!verbose && !m.regression && !m.improvement) continue;
    out += strfmt("%-11s %-60s %14.6g -> %14.6g  (%+.1f%%)\n", tag,
                  m.key.c_str(), m.base, m.current, m.rel_change * 100.0);
  }
  for (const std::string& key : diff.only_base) {
    out += strfmt("removed     %s\n", key.c_str());
  }
  for (const std::string& key : diff.only_current) {
    out += strfmt("added       %s\n", key.c_str());
  }
  const std::string wall =
      diff.wall_factor > 0.0 ? strfmt("wall at %gx", diff.wall_factor)
                             : std::string("wall not gated");
  out += strfmt(
      "%zu metric(s) compared (exact at %g, %s): %d regression(s), "
      "%d improvement(s), %zu removed, %zu added\n",
      diff.metrics.size(), kExactTolerance, wall.c_str(), diff.regressions,
      diff.improvements, diff.only_base.size(), diff.only_current.size());
  return out;
}

}  // namespace alge::obs
