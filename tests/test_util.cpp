#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/image.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace turb {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(3);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 5e-3);
  EXPECT_NEAR(var, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 2e-2);
  EXPECT_NEAR(sum2 / n, 1.0, 3e-2);
  EXPECT_NEAR(sum3 / n, 0.0, 8e-2);
}

TEST(Rng, NormalWithParams) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 5e-2);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, UniformIntOne) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(23);
  Rng child = parent.split();
  // Child stream should not reproduce the parent stream.
  Rng parent2(23);
  parent2.next_u64();  // same advance as split() consumed
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

/// body(i) for every i in [begin, end) through the pool's one dispatch
/// entry.
template <typename Body>
void run_each(ThreadPool& pool, index_t begin, index_t end, const Body& body) {
  pool.run_chunks(begin, end, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) body(i);
  });
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  run_each(pool, 0, 1000, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_chunks(5, 5, [&](index_t, index_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkedCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(537);
  std::atomic<index_t> total{0};
  pool.run_chunks(10, 537, [&](index_t b, index_t e) {
    EXPECT_LT(b, e);
    for (index_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 527);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i < 10 ? 0 : 1) << "i=" << i;
  }
}

TEST(ThreadPool, SingleThreadFallback) {
  // Width 1 runs the whole range as one serial call on the caller.
  ThreadPool pool(1);
  index_t sum = 0;
  int calls = 0;
  pool.run_chunks(0, 100, [&](index_t b, index_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
    for (index_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(run_each(pool, 0, 100,
                        [&](index_t i) {
                          if (i == 57) throw std::runtime_error("x");
                        }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      run_each(pool, 0, 10, [](index_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  run_each(pool, 0, 10, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ManySequentialDispatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    run_each(pool, 0, 37, [&](index_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 37);
  }
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<index_t> sum{0};
  parallel_for(0, 1000, [&](index_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ThreadPool, ScopeOverridesFreeFunctionPool) {
  ThreadPool::Scope scope(3);
  EXPECT_EQ(ThreadPool::current().size(), 3u);
  std::atomic<index_t> sum{0};
  parallel_for(0, 100, [&](index_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ScopesNestInnermostWins) {
  ThreadPool::Scope outer(2);
  EXPECT_EQ(ThreadPool::current().size(), 2u);
  {
    ThreadPool::Scope inner(4);
    EXPECT_EQ(ThreadPool::current().size(), 4u);
  }
  EXPECT_EQ(ThreadPool::current().size(), 2u);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyAndCompletes) {
  ThreadPool::Scope scope(4);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<index_t> total{0};
  parallel_for(0, 8, [&](index_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // The nested loop runs serially on this thread, so plain (non-atomic)
    // accumulation is safe.
    index_t inner_sum = 0;
    parallel_for(0, 100, [&](index_t i) { inner_sum += i; });
    total.fetch_add(inner_sum);
  });
  EXPECT_EQ(total.load(), 8 * 4950);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, SlabPartitionIndependentOfPoolWidth) {
  const auto boundaries = [](std::size_t width) {
    ThreadPool::Scope scope(width);
    std::vector<std::pair<index_t, index_t>> slabs(
        static_cast<std::size_t>(slab_count(0, 37, 8)));
    parallel_for_slabs(0, 37, 8, [&](index_t s, index_t b, index_t e) {
      slabs[static_cast<std::size_t>(s)] = {b, e};
    });
    return slabs;
  };
  const auto w1 = boundaries(1);
  const auto w4 = boundaries(4);
  EXPECT_EQ(w1, w4);
  // Slabs tile [0, 37) contiguously in slot order.
  index_t cursor = 0;
  for (const auto& [b, e] : w1) {
    EXPECT_EQ(b, cursor);
    EXPECT_LT(b, e);
    cursor = e;
  }
  EXPECT_EQ(cursor, 37);
}

TEST(ThreadPool, SlabCountClampsToRange) {
  EXPECT_EQ(slab_count(0, 3, 8), 3);
  EXPECT_EQ(slab_count(0, 100, 8), 8);
  EXPECT_EQ(slab_count(5, 5, 8), 0);
  EXPECT_EQ(slab_count(7, 5, 8), 0);
}

TEST(ThreadPool, ParseThreadCountAcceptsWholeNumbers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("016"), 16u);
}

TEST(ThreadPool, ParseThreadCountRejectsEverythingElse) {
  for (const char* bad : {"", "x", "4x", "x4", "0", "00", "-2", "+4", " 4",
                          "4 ", "2.5", "1e3", "99999999999999999999999"}) {
    try {
      (void)parse_thread_count(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("TURBFNO_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog",   "--alpha", "1.5",   "--beta=2",
                        "--flag", "--gamma", "hello", "pos1"};
  CliArgs args(8, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get_int("beta", 0), 2);
  EXPECT_TRUE(args.get_flag("flag"));
  EXPECT_EQ(args.get("gamma", ""), "hello");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(args.get_flag("v"));
  EXPECT_FALSE(args.has("n"));
}

TEST(Cli, RejectsNonNumeric) {
  // The whole value must parse: junk, trailing junk, whitespace, an empty
  // value and an overflow all throw, and the error names the flag.
  const auto rejected = [](const char* key, const char* value, bool integer) {
    const std::string flag = std::string("--") + key;
    const char* argv[] = {"prog", flag.c_str(), value};
    const CliArgs args(3, argv);
    try {
      if (integer) {
        static_cast<void>(args.get_int(key, 0));
      } else {
        static_cast<void>(args.get_double(key, 0.0));
      }
    } catch (const CheckError& e) {
      return std::string(e.what()).find(flag) != std::string::npos;
    }
    return false;
  };
  for (const char* bad : {"abc", "2x", "2 ", " 2", "", "+2", "1.5", "0x10",
                          "99999999999999999999"}) {
    EXPECT_TRUE(rejected("threads", bad, true)) << "'" << bad << "'";
  }
  for (const char* bad : {"abc", "40.0x", "4 0", "", " 1", "1e999"}) {
    EXPECT_TRUE(rejected("seconds", bad, false)) << "'" << bad << "'";
  }
}

TEST(Cli, ParsesPerfbenchArgv) {
  // The worker command line perfbench/run.py builds: str() of each int and
  // Python's repr() of the float --seconds.
  const char* argv[] = {"perfbench", "--workload", "hybrid_tc", "--seed",
                        "3",         "--seconds",  "40.0",      "--trace",
                        "0",         "--proc",     "1",         "--procs",
                        "3",         "--cpu",      "2"};
  const CliArgs args(15, argv);
  EXPECT_EQ(args.get_int("seed", 1), 3);
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 10.0), 40.0);
  EXPECT_EQ(args.get_int("trace", 1), 0);
  EXPECT_EQ(args.get_int("proc", 0), 1);
  EXPECT_EQ(args.get_int("procs", 1), 3);
  EXPECT_EQ(args.get_int("cpu", -1), 2);

  const char* other[] = {"prog", "--cpu", "-1", "--seconds", "1e-05",
                         "--dt=0.25"};
  const CliArgs more(6, other);
  EXPECT_EQ(more.get_int("cpu", 0), -1);
  EXPECT_DOUBLE_EQ(more.get_double("seconds", 0.0), 1e-05);
  EXPECT_DOUBLE_EQ(more.get_double("dt", 0.0), 0.25);
}

TEST(CliDeathTest, UncaughtErrorExitsWithStatusTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--threads", "2x"};
  EXPECT_EXIT(
      {
        apply_runtime_flags(CliArgs(1, argv));
        // An exception leaving a noexcept frame reaches std::terminate as
        // one leaving main does.
        [&argv]() noexcept {
          static_cast<void>(CliArgs(3, argv).get_int("threads", 1));
        }();
      },
      ::testing::ExitedWithCode(2),
      "error: .*--threads must be an integer, got '2x'");
}

TEST(Cli, ServeEnsembleKValidatesAtFlagApplyTime) {
  // Misconfiguration must fail where the flag is applied, not later as
  // per-request admission rejections in whatever driver read the options.
  const char* zero[] = {"prog", "--serve-ensemble-k", "0"};
  EXPECT_THROW(apply_runtime_flags(CliArgs(3, zero)), CheckError);
  const char* negative[] = {"prog", "--serve-ensemble-k=-4"};
  EXPECT_THROW(apply_runtime_flags(CliArgs(2, negative)), CheckError);

  const char* four[] = {"prog", "--serve-ensemble-k", "4"};
  apply_runtime_flags(CliArgs(3, four));
  EXPECT_EQ(serve_runtime_options().ensemble_k, 4);
  // Restore the process-wide default for the rest of the suite.
  const char* one[] = {"prog", "--serve-ensemble-k", "1"};
  apply_runtime_flags(CliArgs(3, one));
  EXPECT_EQ(serve_runtime_options().ensemble_k, 1);
}

TEST(Table, CsvRoundTrip) {
  SeriesTable t("demo");
  t.set_columns({"t", "value"});
  t.add_row({0.0, 1.0});
  t.add_row({0.5, 2.5});
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("# begin-csv demo"), std::string::npos);
  EXPECT_NE(s.find("t,value"), std::string::npos);
  EXPECT_NE(s.find("0.5,2.5"), std::string::npos);
  EXPECT_NE(s.find("# end-csv"), std::string::npos);
}

TEST(Table, LabelledRows) {
  SeriesTable t("labelled");
  t.set_columns({"params"});
  t.add_row("fno-w40", {6995922.0});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("fno-w40,6995922"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  SeriesTable t("bad");
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), CheckError);
}

TEST(Image, WritesPgmHeader) {
  std::vector<double> field(16 * 8, 0.0);
  field[3] = 1.0;
  const std::string path = testing::TempDir() + "/turb_test.pgm";
  write_pgm(path, field, 8, 16);
  std::ifstream is(path, std::ios::binary);
  std::string magic, dims1, dims2, maxv;
  is >> magic >> dims1 >> dims2 >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(dims1, "16");
  EXPECT_EQ(dims2, "8");
  EXPECT_EQ(maxv, "255");
  std::remove(path.c_str());
}

TEST(Image, WritesPpmWithExpectedSize) {
  std::vector<double> field(32 * 32);
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = std::sin(static_cast<double>(i));
  }
  const std::string path = testing::TempDir() + "/turb_test.ppm";
  write_ppm_diverging(path, field, 32, 32);
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(is.good());
  // header "P6\n32 32\n255\n" = 13 bytes + payload 32*32*3
  EXPECT_EQ(static_cast<long>(is.tellg()), 13 + 32 * 32 * 3);
  std::remove(path.c_str());
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1e-9;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Check, ThrowsWithMessage) {
  try {
    TURB_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace turb
