// Tests for the parallel experiment engine: thread pool semantics (bounded
// queue, exception capture, graceful vs discarding shutdown), spec/result
// JSON round-trips, content-addressed caching (memory + disk, corruption
// recovery), and the load-bearing property of the whole subsystem — a sweep
// produces bit-identical results whether it runs on 1 thread or 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "engine/pool.hpp"
#include "engine/runner.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge::engine {
namespace {

// ---------------------------------------------------------------- pool ----

TEST(Pool, RunsManyTinyJobs) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4, 16);  // small queue: exercises submit backpressure
    for (int i = 0; i < 500; ++i) {
      pool.submit([&sum]() { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.drain();
    EXPECT_EQ(pool.jobs_run(), 500u);
  }
  EXPECT_EQ(sum.load(), 500);
}

TEST(Pool, ReturnsValuesThroughFutures) {
  ThreadPool pool(2);
  auto a = pool.submit([]() { return 21 * 2; });
  auto b = pool.submit([]() { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(Pool, CapturesJobExceptions) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([]() { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // the pool survives a throwing job
}

TEST(Pool, DrainRunsEverythingQueued) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  }
  pool.drain();  // shutdown with jobs still queued: all must run
  EXPECT_EQ(ran.load(), 50);
}

TEST(Pool, DiscardDropsQueuedJobsAndBreaksTheirPromises) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  ThreadPool pool(1, 64);
  auto blocker = pool.submit([&]() {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ran.fetch_add(1);
  });
  // Make sure the blocker is in flight (not still queued) before queueing
  // the jobs that discard() is supposed to drop.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 8; ++i) {
    queued.push_back(pool.submit([&ran]() { ran.fetch_add(1); }));
  }
  // Let discard() clear the queue, then release the in-flight job so the
  // worker can exit and discard() can join.
  std::thread releaser([&release]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  const std::size_t dropped = pool.discard();
  releaser.join();
  EXPECT_EQ(dropped, 8u);
  EXPECT_EQ(ran.load(), 1);  // only the in-flight job ran
  EXPECT_NO_THROW(blocker.get());
  for (auto& f : queued) {
    EXPECT_THROW(f.get(), std::future_error);
  }
}

TEST(Pool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.drain();
  EXPECT_THROW(pool.submit([]() {}), invalid_argument_error);
}

TEST(Pool, RejectsBadConfig) {
  EXPECT_THROW(ThreadPool(0), invalid_argument_error);
  EXPECT_THROW(ThreadPool(1, 0), invalid_argument_error);
}

// ----------------------------------------------------------------- job ----

ExperimentSpec small_mm_spec() {
  ExperimentSpec s;
  s.alg = Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = 24;
  s.q = 2;
  s.c = 2;
  s.verify = true;
  return s;
}

TEST(Job, SpecJsonRoundTrip) {
  ExperimentSpec s = small_mm_spec();
  s.caps_schedule = "BD";
  s.caps_cutoff = 4;
  s.ring_replication = true;
  s.seed = 0xdeadbeefcafef00dULL;  // does not fit a double exactly
  s.params.beta_t = 1.5625e-2;
  const ExperimentSpec back = ExperimentSpec::from_json(
      json::parse(s.canonical_json()));
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.canonical_json(), s.canonical_json());
}

TEST(Job, CanonicalJsonDistinguishesEveryField) {
  const ExperimentSpec base = small_mm_spec();
  ExperimentSpec other = base;
  other.seed = 2;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
  other = base;
  other.params.gamma_e = 2.0;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
  other = base;
  other.verify = false;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
}

TEST(Job, ResultJsonRoundTripIsBitExact) {
  const ExperimentResult r = execute(small_mm_spec());
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_abs_error, 1e-9);
  EXPECT_GT(r.totals.flops_total, 0.0);
  const ExperimentResult back =
      ExperimentResult::from_json(json::parse(r.to_json().dump()));
  EXPECT_EQ(back, r);
}

/// Decoding `v` throws invalid_argument_error whose message names `key`.
void expect_refused(const json::Value& v, const std::string& key) {
  try {
    (void)ExperimentSpec::from_json(v);
    ADD_FAILURE() << "accepted " << v.dump();
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find('"' + key + '"'), std::string::npos)
        << e.what();
  }
}

json::Value spec_json_with(const std::string& key, json::Value value) {
  json::Value v = small_mm_spec().to_json();
  v.set(key, std::move(value));
  return v;
}

TEST(Job, SpecJsonRefusesIntegersThatAreNotExactInts) {
  for (const char* key : {"n", "q", "c", "p", "k", "nb", "r_dim", "c_dim",
                          "payload_words", "caps_cutoff"}) {
    for (const json::Value& bad :
         {json::Value(1e300), json::Value(-1e300), json::Value(16.7),
          json::Value(2147483648.0), json::Value(-2147483649.0),
          json::Value("16"), json::Value(true), json::Value(nullptr)}) {
      SCOPED_TRACE(std::string(key) + " = " + bad.dump());
      expect_refused(spec_json_with(key, bad), key);
    }
    EXPECT_EQ(ExperimentSpec::from_json(spec_json_with(key, 2147483647.0))
                  .to_json()
                  .at(key)
                  .as_double(),
              2147483647.0);
    EXPECT_NO_THROW(
        ExperimentSpec::from_json(spec_json_with(key, -2147483648.0)));
  }
}

TEST(Job, SpecJsonRefusesSeedsThatAreNotDecimalUint64) {
  for (const char* key : {"seed", "chaos_seed"}) {
    for (const json::Value& bad :
         {json::Value("abc"), json::Value(""), json::Value("-1"),
          json::Value("+1"), json::Value(" 1"), json::Value("12x"),
          json::Value("18446744073709551616"), json::Value(7)}) {
      SCOPED_TRACE(std::string(key) + " = " + bad.dump());
      expect_refused(spec_json_with(key, bad), key);
    }
  }
  const ExperimentSpec max = ExperimentSpec::from_json(
      spec_json_with("chaos_seed", "18446744073709551615"));
  EXPECT_EQ(max.chaos_seed, 18446744073709551615ULL);
}

TEST(Job, SpecJsonRefusesUnknownKeys) {
  // "transport" named a real backend before specs ran on the simulator
  // only; accepting it now would run such a spec silently on the simulator.
  for (const char* key : {"transport", "tranport", "seeds", ""}) {
    expect_refused(spec_json_with(key, "sim"), key);
  }
  json::Value v = small_mm_spec().to_json();
  json::Value params = v.at("params");
  params.set("gama_e", 1.0);
  v.set("params", std::move(params));
  expect_refused(v, "gama_e");
}

TEST(Job, AlgNamesRoundTrip) {
  for (const Alg a :
       {Alg::kMm25d, Alg::kSumma, Alg::kCaps, Alg::kNBody, Alg::kLu,
        Alg::kFft, Alg::kTsqr, Alg::kCollBcast, Alg::kCollReduce,
        Alg::kCollAllgather, Alg::kCollA2aDirect, Alg::kCollA2aBruck}) {
    EXPECT_EQ(alg_from_string(to_string(a)), a);
  }
  EXPECT_THROW(alg_from_string("no_such_alg"), invalid_argument_error);
}

// --------------------------------------------------------------- cache ----

TEST(Cache, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Cache, MemoryHitAfterStore) {
  ResultCache cache;
  const ExperimentSpec spec = small_mm_spec();
  EXPECT_FALSE(cache.lookup(spec).has_value());
  const ExperimentResult r = execute(spec);
  cache.store(spec, r);
  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, r);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, DiskStorePersistsAcrossInstances) {
  const std::string dir =
      testing::TempDir() + "alge_cache_persist_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const ExperimentSpec spec = small_mm_spec();
  const ExperimentResult r = execute(spec);
  {
    ResultCache cache(dir);
    cache.store(spec, r);
  }
  ResultCache fresh(dir);
  const auto hit = fresh.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, r);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Cache, CorruptedDiskEntryRecoversAsMiss) {
  const std::string dir = testing::TempDir() + "alge_cache_corrupt_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const ExperimentSpec spec = small_mm_spec();
  const ExperimentResult r = execute(spec);
  std::string entry_path;
  {
    ResultCache cache(dir);
    cache.store(spec, r);
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      entry_path = f.path().string();
    }
  }
  ASSERT_FALSE(entry_path.empty());

  // Truncated JSON.
  { std::ofstream(entry_path, std::ios::trunc) << "{\"spec\":{\"alg\""; }
  {
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // store() repairs the entry; the next fresh instance hits again.
    cache.store(spec, r);
  }
  {
    ResultCache cache(dir);
    ASSERT_TRUE(cache.lookup(spec).has_value());
  }

  // Valid JSON but for a different spec (e.g. a hash collision): rejected.
  {
    ExperimentSpec other = spec;
    other.seed = 999;
    json::Value doc = json::Value::object();
    doc.set("spec", other.to_json()).set("result", r.to_json());
    std::ofstream(entry_path, std::ios::trunc) << doc.dump();
  }
  {
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Cache, BadHighwaterCountReadsAsCorrupt) {
  // The memory high-water fields decode to size_t: a negative, fractional
  // or out-of-range number must be refused as a json error (a miss counted
  // in `corrupt`), never cast.
  const std::string dir = testing::TempDir() + "alge_cache_highwater_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const ExperimentSpec spec = small_mm_spec();
  const ExperimentResult r = execute(spec);
  std::string entry_path;
  {
    ResultCache cache(dir);
    cache.store(spec, r);
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      entry_path = f.path().string();
    }
  }
  ASSERT_FALSE(entry_path.empty());
  for (const char* field : {"mem_highwater_max", "mem_highwater_total"}) {
    for (const double bad : {-1e300, 1.5, 1e300, -1.0, 0x1p53 + 2.0}) {
      json::Value result = r.to_json();
      json::Value totals = result.at("totals");
      totals.set(field, bad);
      result.set("totals", totals);
      EXPECT_THROW(ExperimentResult::from_json(result), json::json_error)
          << field << " = " << bad;
      json::Value doc = json::Value::object();
      doc.set("spec", spec.to_json()).set("result", result);
      { std::ofstream(entry_path, std::ios::trunc) << doc.dump(); }
      ResultCache cache(dir);
      EXPECT_FALSE(cache.lookup(spec).has_value()) << field << " = " << bad;
      EXPECT_EQ(cache.stats().corrupt, 1u) << field << " = " << bad;
    }
    // 2^53 is the largest count a double holds exactly: still accepted.
    json::Value result = r.to_json();
    json::Value totals = result.at("totals");
    totals.set(field, 0x1p53);
    result.set("totals", totals);
    EXPECT_NO_THROW(ExperimentResult::from_json(result)) << field;
  }
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- runner ----

/// Every table entry at size classes 4 and 8, verified, plus the variants
/// the presets do not reach (ring replication, the CAPS local cutoff, the
/// Bruck transpose) and three collectives.
std::vector<ExperimentSpec> mixed_sweep() {
  const core::MachineParams mp = core::MachineParams::unit();
  std::vector<ExperimentSpec> specs;
  auto push = [&](const algs::Problem& pb) {
    ExperimentSpec s = spec_of(pb);
    s.params = mp;
    s.verify = true;
    // Presets may repeat across size classes (CAPS always runs on 7).
    if (std::find(specs.begin(), specs.end(), s) == specs.end()) {
      specs.push_back(std::move(s));
    }
  };
  for (const algs::Entry& e : algs::all()) {
    for (const int p : {4, 8}) push(e.preset(p));
  }
  push({.alg = "mm25d", .n = 16, .q = 2, .c = 2, .ring_replication = true});
  push({.alg = "caps", .n = 14, .k = 1, .caps_cutoff = 4});
  push({.alg = "fft", .p = 4, .r_dim = 16, .c_dim = 16, .fft_bruck = true});
  for (const Alg a : {Alg::kCollBcast, Alg::kCollAllgather,
                      Alg::kCollA2aBruck}) {
    ExperimentSpec s;
    s.alg = a;
    s.params = mp;
    s.p = 8;
    s.payload_words = 32;
    specs.push_back(s);
  }
  return specs;
}

TEST(Runner, SweepIsDeterministicAcrossThreadCounts) {
  const std::vector<ExperimentSpec> specs = mixed_sweep();

  SweepOptions serial;
  serial.threads = 1;
  SweepRunner r1(serial);
  const auto serial_results = r1.run(specs);

  SweepOptions parallel;
  parallel.threads = 8;
  SweepRunner r8(parallel);
  const auto parallel_results = r8.run(specs);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Bit-identical results (operator== compares every counter and energy
    // term exactly) and identical content addresses.
    EXPECT_EQ(serial_results[i], parallel_results[i]) << "spec " << i;
    EXPECT_EQ(r1.cache().key_of(specs[i]), r8.cache().key_of(specs[i]));
    if (specs[i].verify) {
      EXPECT_TRUE(serial_results[i].verified);
      EXPECT_LT(serial_results[i].max_abs_error, 1e-8);
    }
  }
  EXPECT_EQ(r8.stats().jobs, static_cast<int>(specs.size()));
  EXPECT_EQ(r8.stats().cache_hits, 0);
}

TEST(Runner, SecondRunIsAllCacheHits) {
  const std::vector<ExperimentSpec> specs = mixed_sweep();
  SweepOptions opts;
  opts.threads = 4;
  SweepRunner runner(opts);
  const auto first = runner.run(specs);
  EXPECT_EQ(runner.stats().cache_hits, 0);
  const auto second = runner.run(specs);
  EXPECT_EQ(runner.stats().cache_hits, static_cast<int>(specs.size()));
  EXPECT_EQ(runner.stats().executed, 0);
  EXPECT_EQ(first, second);
}

TEST(Runner, WarmDiskCacheServesResultsWithoutExecuting) {
  const std::string dir = testing::TempDir() + "alge_runner_disk_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const std::vector<ExperimentSpec> specs = mixed_sweep();
  std::vector<ExperimentResult> cold;
  {
    SweepOptions opts;
    opts.threads = 2;
    opts.cache_dir = dir;
    SweepRunner runner(opts);
    cold = runner.run(specs);
  }
  SweepOptions opts;
  opts.threads = 2;
  opts.cache_dir = dir;
  SweepRunner warm(opts);
  const auto warm_results = warm.run(specs);
  EXPECT_EQ(warm.stats().cache_hits, static_cast<int>(specs.size()));
  EXPECT_EQ(cold, warm_results);
  std::filesystem::remove_all(dir);
}

TEST(Runner, ProgressReportsEveryJobOnce) {
  std::vector<std::pair<int, int>> calls;
  SweepOptions opts;
  opts.threads = 4;
  opts.progress = [&calls](int done, int total) {
    calls.emplace_back(done, total);
  };
  SweepRunner runner(opts);
  std::vector<ExperimentSpec> specs;
  for (int p : {2, 4, 8}) {
    ExperimentSpec s;
    s.alg = Alg::kCollBcast;
    s.params = core::MachineParams::unit();
    s.p = p;
    s.payload_words = 8;
    specs.push_back(s);
  }
  runner.run(specs);
  ASSERT_EQ(calls.size(), specs.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, static_cast<int>(i) + 1);
    EXPECT_EQ(calls[i].second, static_cast<int>(specs.size()));
  }
}

TEST(Runner, InvalidSpecSurfacesAsException) {
  ExperimentSpec bad;
  bad.alg = Alg::kCollBcast;
  bad.p = 0;  // invalid
  bad.payload_words = 8;
  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  EXPECT_THROW(runner.run({bad}), invalid_argument_error);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A one-job sweep, recorded into `path` as bench `name`.
void record_sweep(const std::string& name, const std::string& path) {
  SweepRunner runner;
  ExperimentSpec s;
  s.alg = Alg::kCollBcast;
  s.params = core::MachineParams::unit();
  s.p = 4;
  s.payload_words = 8;
  runner.run({s});
  bench::write_engine_record(name, runner, path);
}

TEST(BenchJson, EngineRecordReplacesOnlyItsOwnRows) {
  const std::string path = testing::TempDir() + "alge_bench_record_" +
                           std::to_string(::getpid()) + ".json";
  std::filesystem::remove(path);
  record_sweep("sweep_a", path);
  record_sweep("sweep_b", path);
  record_sweep("sweep_a", path);  // replaces sweep_a's rows, keeps sweep_b's
  const obs::BenchFile f = obs::read_bench_file(json::parse(read_text(path)));
  EXPECT_EQ(f.bench, "engine");
  int a_rows = 0;
  int b_rows = 0;
  for (const obs::BenchRecord& r : f.records) {
    a_rows += r.name == "sweep_a";
    b_rows += r.name == "sweep_b";
    if (r.metric == "jobs") {
      EXPECT_EQ(r.value, 1.0);
    }
  }
  EXPECT_GT(a_rows, 0);
  EXPECT_EQ(a_rows, b_rows);
  EXPECT_EQ(f.records.size(), static_cast<std::size_t>(a_rows + b_rows));
  // sweep_b's rows come first now: sweep_a's were rewritten at the end.
  EXPECT_EQ(f.records.front().name, "sweep_b");
  std::filesystem::remove(path);
}

TEST(BenchJson, RefusesToOverwriteAFileOutsideTheSchema) {
  const std::string path = testing::TempDir() + "alge_bench_refuse_" +
                           std::to_string(::getpid()) + ".json";
  for (const std::string& text :
       {std::string("[{\"bench\":\"old history\"}"),  // unparseable
        std::string("[{\"bench\":\"x\",\"jobs\":1}]"),  // old format
        std::string("{\"bench\":\"ghost\",\"records\":[]}")}) {  // other bench
    std::ofstream(path, std::ios::trunc) << text;
    EXPECT_THROW(record_sweep("sweep", path), invalid_argument_error) << text;
    EXPECT_EQ(read_text(path), text) << "the file must be left untouched";
    const bench::BenchJson empty("engine");
    EXPECT_THROW(empty.write(path), invalid_argument_error) << text;
    EXPECT_EQ(read_text(path), text);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace alge::engine
