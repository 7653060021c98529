#include "matching/enum_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace rlqvo {
namespace {

// Dedicated contention coverage for the lock-free per-query budget that
// every parallel enumeration chunk shares (see EnumBudget's memory-order
// protocol). These tests are deliberately oversubscribed relative to the
// container's core count: the claim/stop protocol must be exact under any
// interleaving, and the TSan CI job runs this binary to check the
// no-data-race half of that claim.

constexpr int kThreads = 8;

/// Launches `n` threads running `fn(thread_index)` and joins them all.
void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

// The core exactness property: with T threads hammering a limit of L,
// exactly L claims succeed — never L+1 from a CAS race, never fewer from a
// lost update — regardless of how the attempts interleave.
TEST(EnumBudgetStressTest, ContendedClaimsMatchLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 7u, 100u, 1000u}) {
    EnumBudget budget(limit, &deadline);
    std::atomic<uint64_t> granted{0};
    RunThreads(kThreads, [&](int) {
      // Each thread attempts far more claims than the whole limit, so
      // exhaustion is certain and contention spans the full run.
      for (uint64_t i = 0; i < 2 * limit + 64; ++i) {
        if (budget.TryClaimMatch()) granted.fetch_add(1);
      }
    });
    EXPECT_EQ(granted.load(), limit) << "limit=" << limit;
    EXPECT_TRUE(budget.LimitReached());
    // Exhaustion must have raised the stop broadcast for sibling chunks.
    EXPECT_TRUE(budget.StopRequested());
    // The budget stays exhausted: later claims keep failing.
    EXPECT_FALSE(budget.TryClaimMatch());
  }
}

// The claim that takes the last slot must itself raise the stop broadcast:
// workers in match-free subtrees never attempt (and so never fail) a claim,
// and would otherwise search on until the deadline. No claim fails here.
TEST(EnumBudgetStressTest, LastSuccessfulClaimRaisesStop) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 2u, 9u}) {
    EnumBudget budget(limit, &deadline);
    for (uint64_t i = 0; i < limit; ++i) {
      EXPECT_FALSE(budget.StopRequested()) << "limit=" << limit;
      EXPECT_TRUE(budget.TryClaimMatch());
    }
    EXPECT_TRUE(budget.LimitReached());
    EXPECT_TRUE(budget.StopRequested()) << "limit=" << limit;
  }
  // Contended: kThreads threads each take exactly their share of the slots.
  constexpr uint64_t kPerThread = 500;
  EnumBudget budget(kThreads * kPerThread, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      if (budget.TryClaimMatch()) granted.fetch_add(1);
    }
  });
  EXPECT_EQ(granted.load(), kThreads * kPerThread);
  EXPECT_TRUE(budget.StopRequested());
}

// match_limit == 0 is the paper's "ALL" setting: claims always succeed and
// never touch the atomic, so no amount of claiming may trip the limit or
// the stop flag.
TEST(EnumBudgetStressTest, UnlimitedBudgetNeverExhaustsUnderContention) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(0, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (int i = 0; i < 50000; ++i) {
      if (budget.TryClaimMatch()) granted.fetch_add(1);
    }
  });
  EXPECT_EQ(granted.load(), static_cast<uint64_t>(kThreads) * 50000);
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_FALSE(budget.StopRequested());
}

// Stop-broadcast latency: pollers parked on StopRequested() must all
// observe a RequestStop raised by another thread. The flag is relaxed, so
// this is exactly the "a stale read only delays the unwind" contract — but
// it must become visible promptly, not hang a chunk forever.
TEST(EnumBudgetStressTest, StopBroadcastReachesEveryPoller) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(1000000, &deadline);
  std::atomic<int> observed{0};
  std::atomic<int> started{0};
  std::vector<std::thread> pollers;
  for (int i = 0; i < kThreads; ++i) {
    pollers.emplace_back([&] {
      started.fetch_add(1);
      // Emulate a chunk's checkpoint loop: do a sliver of claimed "work",
      // then poll. A poller that never sees the stop would spin forever and
      // time the test out — visibility IS the assertion.
      while (!budget.StopRequested()) {
        budget.TryClaimMatch();
        std::this_thread::yield();
      }
      observed.fetch_add(1);
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  budget.RequestStop();
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(observed.load(), kThreads);
  // The stop broadcast is advisory only: it must not have consumed claims'
  // exactness (claims above were all granted, limit never reached).
  EXPECT_FALSE(budget.LimitReached());
}

// Deadline expiry racing active claims: every chunk polls Expired() on the
// one shared (immutable) Deadline while others are mid-claim. The test
// pins down that (a) concurrent Expired() reads are safe, (b) the first
// observer's RequestStop halts the rest, and (c) claims granted before the
// stop stay within the limit.
TEST(EnumBudgetStressTest, DeadlineExpiryRaceStopsAllChunks) {
  const Deadline deadline(0.02);  // 20 ms — expires mid-run
  EnumBudget budget(1u << 30, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (;;) {
      if (budget.StopRequested()) return;  // a sibling saw expiry first
      if (budget.deadline().Expired()) {
        budget.RequestStop();
        return;
      }
      // A checkpoint quantum's worth of claims between deadline polls.
      for (int i = 0; i < 64; ++i) {
        if (budget.TryClaimMatch()) granted.fetch_add(1);
      }
    }
  });
  EXPECT_TRUE(budget.StopRequested());
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_GT(granted.load(), 0u);
}

// An already-expired deadline (the "budget spent in earlier phases" case
// RunParallel short-circuits on) must read as expired from every thread,
// immediately and forever.
TEST(EnumBudgetStressTest, ExpiredDeadlineIsExpiredFromEveryThread) {
  const Deadline deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EnumBudget budget(100, &deadline);
  std::atomic<int> saw_expired{0};
  RunThreads(kThreads, [&](int) {
    if (budget.deadline().Expired()) saw_expired.fetch_add(1);
  });
  EXPECT_EQ(saw_expired.load(), kThreads);
}

// Reuse churn: budgets are created per enumeration run, so a fresh budget
// must never inherit state (claims or stop) from a previous run's traffic.
TEST(EnumBudgetStressTest, FreshBudgetsStartCleanAcrossRounds) {
  const Deadline deadline = Deadline::Unlimited();
  for (int round = 0; round < 200; ++round) {
    const uint64_t limit = 1 + static_cast<uint64_t>(round) % 17;
    EnumBudget budget(limit, &deadline);
    EXPECT_FALSE(budget.StopRequested());
    EXPECT_FALSE(budget.LimitReached());
    std::atomic<uint64_t> granted{0};
    RunThreads(4, [&](int) {
      for (uint64_t i = 0; i < limit; ++i) {
        if (budget.TryClaimMatch()) granted.fetch_add(1);
      }
    });
    EXPECT_EQ(granted.load(), limit);
  }
}

}  // namespace
}  // namespace rlqvo
