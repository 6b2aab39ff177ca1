// Observability subsystem: metric correctness under thread-pool contention,
// JSON export round-trip, trainer epoch-callback ordering, and the
// parallel_for exception-rethrow contract the registry's atomics rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "fno/trainer.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

// --- metric primitives under contention -----------------------------------

TEST(Obs, CounterExactUnderContention) {
  obs::Counter& c = obs::counter("test/contended_counter");
  c.reset();
  parallel_for(0, 20000, [&](index_t) { c.add(1); });
  EXPECT_EQ(c.value(), 20000);
  c.add(5);
  EXPECT_EQ(c.value(), 20005);
}

TEST(Obs, TimerStatExactUnderContention) {
  obs::TimerStat& t = obs::timer("test/contended_timer");
  t.reset();
  parallel_for(0, 5000, [&](index_t i) {
    t.record(i % 2 == 0 ? 0.001 : 0.003);
  });
  EXPECT_EQ(t.count(), 5000);
  EXPECT_NEAR(t.total_seconds(), 2500 * 0.001 + 2500 * 0.003, 1e-9);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.001);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 0.003);
}

TEST(Obs, GaugeHoldsLastValue) {
  obs::Gauge& g = obs::gauge("test/gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Obs, MetricReferencesAreStable) {
  obs::Counter& a = obs::counter("test/stable");
  // Force additional registrations, then look the first one up again.
  for (int i = 0; i < 64; ++i) {
    obs::counter("test/churn_" + std::to_string(i)).add(1);
  }
  EXPECT_EQ(&a, &obs::counter("test/stable"));
}

TEST(Obs, ScopedTimerRecordsAndHonoursDisable) {
  obs::TimerStat& t = obs::timer("test/scoped");
  t.reset();
  {
    TURB_TRACE_SCOPE("test/scoped");
  }
  EXPECT_EQ(t.count(), 1);
  EXPECT_GE(t.total_seconds(), 0.0);

  obs::set_enabled(false);
  {
    TURB_TRACE_SCOPE("test/scoped");
  }
  obs::set_enabled(true);
  EXPECT_EQ(t.count(), 1) << "disabled spans must not record";
}

// --- JSON export -----------------------------------------------------------

/// Pull the numeric token following `"key": ` out of a JSON string.
double json_number_after(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key << " in\n"
                                    << json;
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(Obs, JsonExportRoundTrip) {
  obs::counter("test/json_counter").reset();
  obs::counter("test/json_counter").add(42);
  obs::gauge("test/json_gauge").set(2.5);
  obs::TimerStat& t = obs::timer("test/json_span");
  t.reset();
  t.record(0.25);
  t.record(0.75);

  const std::string path = testing::TempDir() + "turbfno_obs_roundtrip.json";
  ASSERT_TRUE(obs::dump_json(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  EXPECT_EQ(json_number_after(json, "test/json_counter"), 42.0);
  const auto gauge_pos = json.find("\"test/json_gauge\": 2.5");
  EXPECT_NE(gauge_pos, std::string::npos);

  // Span block: count/total/min/max/mean survive the round trip.
  const auto span_pos = json.find("\"test/json_span\"");
  ASSERT_NE(span_pos, std::string::npos);
  const auto span_end = json.find('}', span_pos);
  ASSERT_NE(span_end, std::string::npos);
  const std::string span = json.substr(span_pos, span_end - span_pos + 1);
  EXPECT_EQ(json_number_after(span, "count"), 2.0);
  EXPECT_NEAR(json_number_after(span, "total_seconds"), 1.0, 1e-9);
  EXPECT_NEAR(json_number_after(span, "min_seconds"), 0.25, 1e-9);
  EXPECT_NEAR(json_number_after(span, "max_seconds"), 0.75, 1e-9);
  EXPECT_NEAR(json_number_after(span, "mean_seconds"), 0.5, 1e-9);

  std::remove(path.c_str());
}

TEST(Obs, JsonNeverEmitsInfinity) {
  // An un-recorded timer has min = +inf; JSON must stay parseable (null).
  obs::timer("test/json_empty_span").reset();
  const std::string json = obs::to_json();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Obs, ResetZeroesButKeepsRegistrations) {
  obs::Counter& c = obs::counter("test/reset_me");
  c.add(7);
  obs::reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(&c, &obs::counter("test/reset_me"));
}

// --- trainer callback ordering ---------------------------------------------

TEST(TrainerCallback, EpochCallbackOrderedAndComplete) {
  Rng rng(11);
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.n_layers = 2;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  fno::Fno model(cfg, rng);

  TensorF x({6, 3, 8, 8}), y({6, 2, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  y.fill_normal(rng, 0.0, 1.0);
  nn::DataLoader loader(x, y, 2, true, 3);

  fno::TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 1e-3;
  std::vector<fno::EpochStats> seen;
  tc.on_epoch_end = [&seen](const fno::EpochStats& s) {
    seen.push_back(s);
  };
  const fno::TrainResult result = fno::train_fno(model, loader, tc);

  ASSERT_EQ(seen.size(), 4u);
  for (index_t e = 0; e < 4; ++e) {
    const auto ue = static_cast<std::size_t>(e);
    EXPECT_EQ(seen[ue].epoch, e) << "callbacks must arrive in epoch order";
    EXPECT_EQ(seen[ue].epoch, result.history[ue].epoch);
    EXPECT_DOUBLE_EQ(seen[ue].train_loss, result.history[ue].train_loss);
    EXPECT_GT(seen[ue].seconds, 0.0);
    // The phase split covers real work and sums to at most the epoch time.
    const double phases = seen[ue].data_seconds + seen[ue].forward_seconds +
                          seen[ue].backward_seconds +
                          seen[ue].optimizer_seconds;
    EXPECT_GT(phases, 0.0);
    EXPECT_LE(phases, seen[ue].seconds * 1.5 + 1e-3);
  }
}

TEST(TrainerCallback, TrainEmitsObsSpans) {
  // train_fno must feed the train/* spans the benches export.
  obs::TimerStat& fwd = obs::timer("train/forward");
  const std::int64_t before = fwd.count();

  Rng rng(12);
  fno::FnoConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.n_layers = 1;
  cfg.n_modes = {4, 4};
  cfg.lifting_channels = 4;
  cfg.projection_channels = 4;
  fno::Fno model(cfg, rng);
  TensorF x({2, 2, 8, 8}), y({2, 2, 8, 8});
  x.fill_normal(rng, 0.0, 1.0);
  y.fill_normal(rng, 0.0, 1.0);
  nn::DataLoader loader(x, y, 2, false);
  fno::TrainConfig tc;
  tc.epochs = 2;
  (void)fno::train_fno(model, loader, tc);

  EXPECT_EQ(fwd.count(), before + 2) << "one train/forward record per epoch";
}

// --- thread-pool regression -------------------------------------------------

TEST(ThreadPoolRegression, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  try {
    pool.run_chunks(0, 64, [](index_t b, index_t e) {
      if (b <= 17 && 17 < e) throw std::runtime_error("body failure at 17");
    });
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body failure at 17");
  }
  // The pool must stay usable after the throw.
  std::atomic<index_t> count{0};
  pool.run_chunks(0, 32, [&](index_t b, index_t e) { count.fetch_add(e - b); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolRegression, SetGlobalThreadsAfterFirstUseThrows) {
  parallel_for(0, 8, [](index_t) {});  // materialise the global pool
  EXPECT_THROW(set_global_threads(4), CheckError);
}

}  // namespace
}  // namespace turb
