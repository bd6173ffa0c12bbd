// Unit tests for src/util: CLI parsing, deterministic RNG, the thread
// pool's parallel_for and run_team contracts, timers, and formatting
// helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotated_mutex.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/format.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dpz {
namespace {

// ---- CliArgs -----------------------------------------------------------

TEST(CliArgs, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=3", "--name=hello"};
  const CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(CliArgs, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "42"};
  const CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 42);
}

TEST(CliArgs, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  const CliArgs args(2, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  const CliArgs args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

// A failed precondition's text is its message alone: the CLI prints it
// as the usage error, so no source path, line or C++ condition leaks in.
TEST(Require, ThrowsInvalidArgumentCarryingOnlyTheMessage) {
  const int chunk = 3;
  try {
    DPZ_REQUIRE(chunk >= 8, "chunk must hold 8 to 2^40 values");
    ADD_FAILURE() << "DPZ_REQUIRE passed";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "chunk must hold 8 to 2^40 values");
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_NO_THROW(DPZ_REQUIRE(chunk == 3, std::string("unused")));
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", -7), -7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, PositionalArgumentsPreserved) {
  const char* argv[] = {"prog", "one", "--k=2", "two"};
  const CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(CliArgs, UnknownFlagRejectedWhenListed) {
  const char* argv[] = {"prog", "--oops=1"};
  EXPECT_THROW(CliArgs(2, argv, {"expected"}), InvalidArgument);
}

TEST(CliArgs, KnownFlagAcceptedWhenListed) {
  const char* argv[] = {"prog", "--expected=1"};
  const CliArgs args(2, argv, {"expected"});
  EXPECT_EQ(args.get_int("expected", 0), 1);
}

TEST(CliArgs, DoubleParsing) {
  const char* argv[] = {"prog", "--tve=0.99999"};
  const CliArgs args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("tve", 0.0), 0.99999);
}

TEST(CliArgs, NumbersParseInFullOrThrowNamingTheFlag) {
  const char* argv[] = {"prog",        "--n=12x",   "--big=9223372036854775808",
                        "--d=0.5x",    "--inf=1e999", "--nan=nan",
                        "--empty=",    "--neg=-3",  "--sci=2.5e-3"};
  const CliArgs args(9, argv);
  for (const char* name : {"n", "big"}) {
    try {
      (void)args.get_int(name, 0);
      ADD_FAILURE() << name << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* name : {"d", "inf", "nan"})
    EXPECT_THROW((void)args.get_double(name, 0.0), InvalidArgument) << name;
  EXPECT_EQ(args.get_int("empty", 7), 7);  // empty keeps the fallback
  EXPECT_DOUBLE_EQ(args.get_double("empty", 1.5), 1.5);
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("sci", 0.0), 2.5e-3);
}

// Strict parsing still accepts every value in range, the extremes included.
TEST(CliArgs, NumbersAtTheEndsOfTheirRangeParse) {
  const char* argv[] = {"prog", "--max=9223372036854775807",
                        "--min=-9223372036854775808", "--plus=+42",
                        "--huge=1.7e308", "--tiny=-2.5e-300"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("max", 0), INT64_MAX);
  EXPECT_EQ(args.get_int("min", 0), INT64_MIN);
  EXPECT_EQ(args.get_int("plus", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("huge", 0.0), 1.7e308);
  EXPECT_DOUBLE_EQ(args.get_double("tiny", 0.0), -2.5e-300);
}

// ---- Rng ----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v.begin(), v.end());
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  const ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  const ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, SingleThreadFallback) {
  const ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  auto run = [](unsigned threads) {
    const ThreadPool pool(threads);
    std::vector<double> out(257, 0.0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i));
    });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.parallel_for(0, 64, [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // The nested call must not deadlock or oversubscribe: it runs
    // serially on this worker.
    pool.parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, NestedCallOnDifferentPoolRunsInline) {
  const ThreadPool outer(3);
  const ThreadPool inner(3);
  std::vector<std::atomic<int>> hits(32 * 8);
  outer.parallel_for(0, 32, [&](std::size_t i) {
    inner.parallel_for(0, 8,
                       [&](std::size_t j) { hits[i * 8 + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentTopLevelCallsAreSerialized) {
  // Multiple plain threads hammer the same pool; every loop must still
  // cover its range exactly once. This is the documented multi-caller
  // contract (top-level calls serialize internally).
  const ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kRange = 512;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    std::vector<std::atomic<int>> fresh(kRange);
    v.swap(fresh);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (int repeat = 0; repeat < 8; ++repeat)
        pool.parallel_for(0, kRange,
                          [&](std::size_t i) { hits[c][i].fetch_add(1); });
    });
  for (auto& t : callers) t.join();
  for (const auto& caller : hits)
    for (const auto& h : caller) EXPECT_EQ(h.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  const ThreadPool pool(4);
  std::vector<int> out(100, 0);
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] += 1; });
  for (const int v : out) EXPECT_EQ(v, 200);
}

TEST(ThreadPool, NeverRunsBodiesOnMoreThreadsThanCores) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const ThreadPool pool(hw + 4);
  EXPECT_EQ(pool.thread_count(), hw + 4);
  Mutex m;
  std::set<std::thread::id> seen;
  for (int loop = 0; loop < 200; ++loop)
    pool.parallel_for(0, 1000, [&](std::size_t) {
      const MutexLock lock(m);
      seen.insert(std::this_thread::get_id());
    });
  EXPECT_LE(seen.size(), hw);
}

TEST(ThreadPool, ChunksAreTheCeilingPartitionOfTheRequestedWidth) {
  // The width, not the host's cores, sets the chunk boundaries, so an
  // 8-thread pool splits work 8 ways on any host; nested calls run the
  // same chunks inline, in order.
  const ThreadPool pool(8);
  EXPECT_EQ(pool.thread_count(), 8U);
  using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;
  auto chunks_of = [&](std::size_t begin, std::size_t end) {
    Mutex m;
    Chunks out;
    pool.parallel_chunks(begin, end, [&](std::size_t lo, std::size_t hi) {
      const MutexLock lock(m);
      out.emplace_back(lo, hi);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  Chunks eight;
  for (std::size_t c = 0; c < 8; ++c)
    eight.emplace_back(c * 125, (c + 1) * 125);
  EXPECT_EQ(chunks_of(0, 1000), eight);
  EXPECT_EQ(chunks_of(10, 19),
            (Chunks{{10, 12}, {12, 14}, {14, 16}, {16, 18}, {18, 19}}));
  EXPECT_EQ(chunks_of(3, 6), (Chunks{{3, 4}, {4, 5}, {5, 6}}));

  Chunks nested;
  pool.parallel_for(0, 1, [&](std::size_t) {
    pool.parallel_chunks(0, 1000, [&](std::size_t lo, std::size_t hi) {
      nested.emplace_back(lo, hi);
    });
  });
  EXPECT_EQ(nested, eight);
}

TEST(PoolScope, FreeParallelForRoutesThroughActivePool) {
  // A 1-thread scoped pool keeps everything on the calling thread; the
  // free parallel_for must pick it up instead of the global pool.
  const ThreadPool solo(1);
  const std::thread::id caller = std::this_thread::get_id();
  {
    const PoolScope scope(solo);
    EXPECT_EQ(&PoolScope::current(), &solo);
    parallel_for(0, 32, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
  EXPECT_EQ(&PoolScope::current(), &ThreadPool::global());
}

TEST(PoolScope, ScopesNestAndRestore) {
  const ThreadPool a(2);
  const ThreadPool b(3);
  {
    const PoolScope outer(a);
    EXPECT_EQ(PoolScope::current().thread_count(), 2U);
    {
      const PoolScope inner(b);
      EXPECT_EQ(PoolScope::current().thread_count(), 3U);
    }
    EXPECT_EQ(PoolScope::current().thread_count(), 2U);
  }
}

TEST(ScopedThreads, ZeroKeepsAmbientPoolNonzeroOwnsOne) {
  const ThreadPool ambient(2);
  const PoolScope scope(ambient);
  {
    const ScopedThreads keep(0);
    EXPECT_EQ(&PoolScope::current(), &ambient);
  }
  {
    const ScopedThreads own(5);
    EXPECT_EQ(PoolScope::current().thread_count(), 5U);
    EXPECT_NE(&PoolScope::current(), &ambient);
  }
  EXPECT_EQ(&PoolScope::current(), &ambient);
}

// ---- ThreadPool::run_team ----------------------------------------------
// A team's participants run at once and meet at barriers; one failing
// participant must release the others (never a hang) and surface its
// error exactly once.

TEST(ThreadTeam, EveryParticipantEntersAndBarriersPublishWrites) {
  const ThreadPool pool(4);
  const unsigned width = pool.team_width();
  std::vector<unsigned> slots(width, 0);
  std::atomic<unsigned> entered{0};
  std::atomic<int> mismatches{0};
  pool.run_team([&](TeamMember& team) {
    EXPECT_EQ(team.size(), width);
    entered.fetch_add(1);
    for (unsigned round = 1; round <= 200; ++round) {
      slots[team.rank()] = round * (team.rank() + 1);
      team.barrier();
      for (unsigned r = 0; r < width; ++r)
        if (slots[r] != round * (r + 1)) mismatches.fetch_add(1);
      team.barrier();
    }
  });
  EXPECT_EQ(entered.load(), width);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadTeam, WidthIsClampedToHardwareAndOneWhenNested) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const ThreadPool wide(hw + 4);
  EXPECT_EQ(wide.team_width(), hw);
  EXPECT_EQ(ThreadPool(1).team_width(), 1U);
  const std::thread::id caller = std::this_thread::get_id();
  wide.parallel_for(0, 1, [&](std::size_t) {
    EXPECT_EQ(wide.team_width(), 1U);
    wide.run_team([&](TeamMember& team) {
      EXPECT_EQ(team.size(), 1U);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      team.barrier();
    });
  });
}

TEST(ThreadTeam, MembersEnterOnceOnThePoolsOwnThreads) {
  // The team is the pool: min(threads, cores) members, each entering
  // exactly once on its own thread, and no loop on the pool runs on a
  // thread outside the team.
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  for (const unsigned threads : {2U, hw, hw + 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ThreadPool pool(threads);
    const unsigned width = std::min(threads, hw);
    EXPECT_EQ(pool.team_width(), width);
    Mutex m;
    std::vector<int> entries(width, 0);
    std::set<std::thread::id> team;
    pool.run_team([&](TeamMember& member) {
      EXPECT_EQ(member.size(), width);
      const MutexLock lock(m);
      ++entries[member.rank()];
      team.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(entries, std::vector<int>(width, 1));
    EXPECT_EQ(team.size(), width);
    std::set<std::thread::id> loop;
    for (int round = 0; round < 50; ++round)
      pool.parallel_for(0, 64, [&](std::size_t) {
        const MutexLock lock(m);
        loop.insert(std::this_thread::get_id());
      });
    for (const std::thread::id& id : loop) EXPECT_EQ(team.count(id), 1U);
  }
}

// Runs `body` on a 4-thread pool's team and returns how often run_team
// threw an Error carrying `message` (it must be exactly once).
int team_errors(const std::function<void(TeamMember&)>& body,
                const char* message) {
  const ThreadPool pool(4);
  int caught = 0;
  try {
    pool.run_team(body);
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), message);
    ++caught;
  }
  // The pool stays usable: no participant is left behind at a barrier.
  std::atomic<unsigned> entered{0};
  pool.run_team([&](TeamMember& team) {
    team.barrier();
    entered.fetch_add(1);
  });
  EXPECT_EQ(entered.load(), pool.team_width());
  return caught;
}

TEST(ThreadTeam, ParticipantThrowingBeforeABarrierReleasesThePeers) {
  if (ThreadPool(4).team_width() < 2) GTEST_SKIP() << "one hardware thread";
  EXPECT_EQ(team_errors(
                [](TeamMember& team) {
                  if (team.rank() + 1 == team.size()) throw Error("boom");
                  for (int i = 0; i < 10; ++i) team.barrier();
                },
                "boom"),
            1);
}

TEST(ThreadTeam, ParticipantThrowingAfterABarrierReleasesThePeers) {
  if (ThreadPool(4).team_width() < 2) GTEST_SKIP() << "one hardware thread";
  EXPECT_EQ(team_errors(
                [](TeamMember& team) {
                  team.barrier();
                  if (team.rank() == 1) throw Error("late boom");
                  for (int i = 0; i < 10; ++i) team.barrier();
                },
                "late boom"),
            1);
}

TEST(ThreadTeam, CancelledGovernorStillEntersEveryBodyThenTripsAtBarrier) {
  // parallel_for polls before each index; a team must not, or a
  // participant that never entered would strand its peers.
  CancelSource source;
  source.request_cancel();
  ResourceLimits limits;
  limits.cancel = source.token();
  const GovernorScope scope(limits);
  const ThreadPool pool(4);
  std::atomic<unsigned> entered{0};
  int cancelled = 0;
  try {
    pool.run_team([&](TeamMember& team) {
      entered.fetch_add(1);
      team.barrier();
    });
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
    ++cancelled;
  }
  EXPECT_EQ(entered.load(), pool.team_width());
  EXPECT_EQ(cancelled, 1);
}

TEST(ThreadTeam, CancelBetweenBarriersStopsEveryParticipantAtTheNextOne) {
  CancelSource source;
  ResourceLimits limits;
  limits.cancel = source.token();
  const GovernorScope scope(limits);
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> passed(pool.team_width());
  int cancelled = 0;
  try {
    pool.run_team([&](TeamMember& team) {
      for (int i = 1; i <= 100; ++i) {
        team.barrier();
        passed[team.rank()].store(i);
        if (team.rank() == 0 && i == 10) source.request_cancel();
      }
    });
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
    ++cancelled;
  }
  EXPECT_EQ(cancelled, 1);
  // Rank 0 polls at barrier 11 before arriving, so nobody passes it.
  for (const auto& p : passed) EXPECT_LE(p.load(), 10);
}

// ---- Timers ----------------------------------------------------------------

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.elapsed();
  const double b = t.elapsed();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

// ---- Format -----------------------------------------------------------------

TEST(Format, FixedAndScientific) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(scientific(0.000194, 2), "1.94E-04");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
  EXPECT_EQ(human_bytes(5ULL * 1024 * 1024 * 1024), "5.00 GB");
}

TEST(Format, TablePrinterRendersAllRows) {
  TablePrinter t({"col1", "col2"});
  t.add_row({"a", "bbbb"});
  t.add_row({"cc", "d"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("col1"), std::string::npos);
  EXPECT_NE(s.find("bbbb"), std::string::npos);
  EXPECT_NE(s.find("cc"), std::string::npos);
}

TEST(Format, TablePrinterCsv) {
  TablePrinter t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

}  // namespace
}  // namespace dpz
