// The consistent-hash ring's contract (ring.h): assignment is a pure
// function of (worker set, key) — identical across runs and join orders —
// failover order visits every worker exactly once starting at the owner,
// load split is near-uniform, and membership changes move only the keys
// they must.
#include "router/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.h"
#include "support/text.h"

namespace parmem::router {
namespace {

std::vector<std::uint64_t> probe_keys(std::size_t n, std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  return keys;
}

TEST(HashRing, OwnerIsIndependentOfJoinOrder) {
  const auto keys = probe_keys(2000, 0xA11CE);
  HashRing forward(kDefaultVirtualNodes);
  HashRing backward(kDefaultVirtualNodes);
  HashRing shuffled(kDefaultVirtualNodes);
  for (std::uint32_t w = 0; w < 5; ++w) forward.add_worker(w);
  for (std::uint32_t w = 5; w-- > 0;) backward.add_worker(w);
  for (const std::uint32_t w : {3u, 0u, 4u, 2u, 1u}) shuffled.add_worker(w);

  for (const std::uint64_t key : keys) {
    const auto owner = forward.owner(key);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(owner, backward.owner(key));
    EXPECT_EQ(owner, shuffled.owner(key));
    EXPECT_EQ(forward.failover_order(key), backward.failover_order(key));
    EXPECT_EQ(forward.failover_order(key), shuffled.failover_order(key));
  }
}

TEST(HashRing, AssignmentIsByteIdenticalAcrossRuns) {
  // FNV-1a over the owner sequence of a fixed probe set: any change to the
  // point hash, the tie order, or the lookup rule shows up as a different
  // digest on every platform. The constant was captured from the initial
  // implementation and must never drift — cache shards are keyed by it.
  HashRing ring(4, kDefaultVirtualNodes);
  std::string owners;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    owners.push_back(static_cast<char>(*ring.owner(key)));
  }
  EXPECT_EQ(support::fnv1a64(owners), 0xaa714def3b287177ULL);
}

TEST(HashRing, FailoverOrderVisitsEveryWorkerOnceOwnerFirst) {
  HashRing ring(6, kDefaultVirtualNodes);
  for (const std::uint64_t key : probe_keys(500, 0xBEEF)) {
    const auto order = ring.failover_order(key);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order.front(), *ring.owner(key));
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t w = 0; w < 6; ++w) EXPECT_EQ(sorted[w], w);
  }
}

TEST(HashRing, LoadSplitIsNearUniform) {
  HashRing ring(4, kDefaultVirtualNodes);
  std::size_t counts[4] = {};
  const auto keys = probe_keys(100000, 0x10AD);
  for (const std::uint64_t key : keys) ++counts[*ring.owner(key)];
  for (const std::size_t c : counts) {
    const double share = static_cast<double>(c) / keys.size();
    EXPECT_GT(share, 0.15) << "worker starved";
    EXPECT_LT(share, 0.35) << "worker overloaded";
  }
}

TEST(HashRing, RemovalMovesOnlyTheRemovedWorkersKeys) {
  HashRing ring(5, kDefaultVirtualNodes);
  const auto keys = probe_keys(3000, 0xD15);
  std::vector<std::uint32_t> before;
  before.reserve(keys.size());
  for (const std::uint64_t key : keys) before.push_back(*ring.owner(key));

  ring.remove_worker(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t after = *ring.owner(keys[i]);
    if (before[i] != 2) {
      EXPECT_EQ(after, before[i]) << "key moved without cause";
    } else {
      EXPECT_NE(after, 2u);
    }
  }

  // Re-adding restores the original assignment bit for bit.
  ring.add_worker(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(*ring.owner(keys[i]), before[i]);
  }
}

TEST(HashRing, EmptyAndSingleWorkerEdges) {
  HashRing empty(kDefaultVirtualNodes);
  EXPECT_FALSE(empty.owner(42).has_value());
  EXPECT_TRUE(empty.failover_order(42).empty());

  HashRing solo(1, kDefaultVirtualNodes);
  EXPECT_EQ(*solo.owner(42), 0u);
  EXPECT_EQ(solo.failover_order(42), std::vector<std::uint32_t>{0});

  // add/remove are idempotent.
  solo.add_worker(0);
  EXPECT_EQ(solo.worker_count(), 1u);
  solo.remove_worker(7);
  EXPECT_EQ(solo.worker_count(), 1u);
}

TEST(HashRing, FailoverOrderIsKeyDependent) {
  // Different keys should not all share one global successor list — the
  // spill target of a saturated owner must spread over the fleet.
  HashRing ring(4, kDefaultVirtualNodes);
  bool successors_differ = false;
  std::uint32_t first_successor = 0;
  bool seeded = false;
  for (const std::uint64_t key : probe_keys(200, 0x5EED)) {
    const auto order = ring.failover_order(key);
    if (!seeded) {
      first_successor = order[1];
      seeded = true;
    } else if (order[1] != first_successor) {
      successors_differ = true;
      break;
    }
  }
  EXPECT_TRUE(successors_differ);
}

}  // namespace
}  // namespace parmem::router
