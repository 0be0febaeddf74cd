// Virtual memory substrate tests: page pool LRU/clock mechanics, faulting,
// resident limits, and the two-level eviction algorithm with grafts.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/mem/memory_system.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

TEST(PagePoolTest, AllocateAndFree) {
  PagePool pool(4);
  EXPECT_EQ(pool.free_count(), 4u);
  Page* p = pool.Allocate(1, 0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->resident);
  EXPECT_EQ(p->owner, 1u);
  EXPECT_EQ(pool.free_count(), 3u);
  pool.Free(p);
  EXPECT_EQ(pool.free_count(), 4u);
  EXPECT_FALSE(p->resident);
}

TEST(PagePoolTest, ExhaustionReturnsNull) {
  PagePool pool(2);
  EXPECT_NE(pool.Allocate(1, 0), nullptr);
  EXPECT_NE(pool.Allocate(1, 1), nullptr);
  EXPECT_EQ(pool.Allocate(1, 2), nullptr);
}

TEST(PagePoolTest, VictimIsLeastRecentlyUsed) {
  PagePool pool(3);
  Page* a = pool.Allocate(1, 0);
  Page* b = pool.Allocate(1, 1);
  Page* c = pool.Allocate(1, 2);
  // All have their reference bit set; clock clears them in one sweep, then
  // evicts the queue head — the least recently touched.
  pool.Touch(b);
  pool.Touch(c);
  pool.Touch(a);  // Order now: b, c, a.
  Page* victim = pool.SelectVictim();
  EXPECT_EQ(victim, b);
}

TEST(PagePoolTest, WiredPagesNeverVictims) {
  PagePool pool(2);
  Page* a = pool.Allocate(1, 0);
  Page* b = pool.Allocate(1, 1);
  a->wired = true;
  a->referenced = false;
  b->referenced = false;
  EXPECT_EQ(pool.SelectVictim(), b);
  b->wired = true;
  EXPECT_EQ(pool.SelectVictim(), nullptr);
}

TEST(PagePoolTest, SelectVictimFromRestrictsOwner) {
  PagePool pool(4);
  pool.Allocate(1, 0);
  Page* other = pool.Allocate(2, 0);
  EXPECT_EQ(pool.SelectVictimFrom(2), other);
  EXPECT_EQ(pool.SelectVictimFrom(3), nullptr);
}

TEST(PagePoolTest, CaoSwapPlacesOriginalInReplacementSlot) {
  PagePool pool(4);
  Page* a = pool.Allocate(1, 0);
  Page* b = pool.Allocate(1, 1);
  Page* c = pool.Allocate(1, 2);
  // LRU order: a, b, c. The graft protects a, offering c instead: a takes
  // c's slot so it does not gain freshness.
  pool.SwapLruPositions(a, c);
  const auto order = pool.LruOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], b->id);
  EXPECT_EQ(order[1], a->id);
  EXPECT_FALSE(c->linked());
}

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : mem_(8, &txn_, &host_, &ns_) {}

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  MemorySystem mem_;
};

TEST_F(MemorySystemTest, FaultThenHit) {
  VirtualAddressSpace* vas = mem_.CreateVas("app", 4);
  Result<bool> first = mem_.Touch(vas->id(), 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());  // Fault.
  Result<bool> second = mem_.Touch(vas->id(), 0);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value());  // Hit.
  EXPECT_EQ(mem_.stats().faults, 1u);
}

TEST_F(MemorySystemTest, ResidentLimitEnforcedWithinVas) {
  VirtualAddressSpace* small = mem_.CreateVas("small", 2);
  VirtualAddressSpace* other = mem_.CreateVas("other", 4);
  ASSERT_TRUE(mem_.Touch(other->id(), 0).ok());
  ASSERT_TRUE(mem_.Touch(other->id(), 1).ok());

  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(mem_.Touch(small->id(), i).ok());
  }
  // The small VAS never exceeds its limit...
  EXPECT_LE(small->resident_count(), 2u);
  // ...and its overflow evicted its own pages, not the other app's (Rule 8).
  EXPECT_EQ(other->resident_count(), 2u);
}

TEST_F(MemorySystemTest, PoolExhaustionTriggersGlobalEviction) {
  VirtualAddressSpace* a = mem_.CreateVas("a", 8);
  VirtualAddressSpace* b = mem_.CreateVas("b", 8);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mem_.Touch(a->id(), i).ok());
  }
  // Pool (8 frames) is full; b's fault forces a global eviction.
  ASSERT_TRUE(mem_.Touch(b->id(), 0).ok());
  EXPECT_GE(mem_.stats().evictions, 1u);
  EXPECT_EQ(a->resident_count() + b->resident_count(), 8u);
}

TEST_F(MemorySystemTest, AllWiredMeansNoVictim) {
  VirtualAddressSpace* vas = mem_.CreateVas("wired", 8);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
    ASSERT_EQ(vas->Wire(i), Status::kOk);
  }
  EXPECT_EQ(mem_.EvictOne(), Status::kUnavailable);
}

// Builds an eviction graft that walks the resident list and returns the
// first page not on the hint (pinned) list — the paper's §4.2.2 graft.
std::shared_ptr<Graft> PinningEvictionGraft(const HostCallTable& host) {
  // Args: r0=victim, r1=resident addr, r2=resident count,
  //       r3=hint addr, r4=hint count.
  // for each resident page p: if p not in hints: return p. else return victim.
  Asm a("pin-evict");
  auto outer_loop = a.NewLabel();
  auto outer_next = a.NewLabel();
  auto inner_loop = a.NewLabel();
  auto inner_done = a.NewLabel();
  auto pinned = a.NewLabel();
  auto give_up = a.NewLabel();

  // r5 = resident index.
  a.LoadImm(R5, 0);
  a.Bind(outer_loop);
  a.BgeU(R5, R2, give_up);
  // r6 = resident[r5]
  a.ShlI(R7, R5, 3);
  a.Add(R7, R1, R7);
  a.Ld64(R6, R7);
  // Inner scan of hints: r8 = hint index.
  a.LoadImm(R8, 0);
  a.Bind(inner_loop);
  a.BgeU(R8, R4, inner_done);
  a.ShlI(R9, R8, 3);
  a.Add(R9, R3, R9);
  a.Ld64(R10, R9);
  a.Beq(R10, R6, pinned);
  a.AddI(R8, R8, 1);
  a.Jmp(inner_loop);
  a.Bind(inner_done);
  // Not pinned: evict this one.
  a.Mov(R0, R6);
  a.Halt();
  a.Bind(pinned);
  a.Bind(outer_next);
  a.AddI(R5, R5, 1);
  a.Jmp(outer_loop);
  a.Bind(give_up);
  // Everything pinned: accept the global victim.
  a.Halt();  // r0 still holds the victim argument.

  Result<Program> p = a.Finish();
  EXPECT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p);
  EXPECT_TRUE(inst.ok());
  return std::make_shared<Graft>(
      "pin-evict", *VerifyAndCompile(*inst, host), kUser, 4096);
}

TEST_F(MemorySystemTest, EvictionGraftProtectsPinnedPages) {
  VirtualAddressSpace* vas = mem_.CreateVas("app", 8);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
  }
  ASSERT_EQ(vas->eviction_point().Replace(PinningEvictionGraft(host_)),
            Status::kOk);

  // Pin the page backing virtual index 0 (the next global victim).
  Page* important = vas->FindResident(0);
  ASSERT_NE(important, nullptr);
  vas->SetPinnedHints({important->id});

  // Age all pages so the clock picks index 0 first.
  for (uint64_t i = 0; i < 4; ++i) {
    Page* p = vas->FindResident(i);
    ASSERT_NE(p, nullptr);
    p->referenced = false;
  }

  ASSERT_EQ(mem_.EvictOne(), Status::kOk);
  // The pinned page survived; the graft overruled with some other page.
  EXPECT_NE(vas->FindResident(0), nullptr);
  EXPECT_EQ(mem_.stats().graft_overrules, 1u);
  EXPECT_EQ(vas->resident_count(), 3u);
}

TEST_F(MemorySystemTest, GraftChoosingWiredPageIsOverruled) {
  VirtualAddressSpace* vas = mem_.CreateVas("app", 8);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
    vas->FindResident(i)->referenced = false;
  }
  // Graft that always returns the id of the wired page.
  Page* wired_page = vas->FindResident(2);
  ASSERT_EQ(vas->Wire(2), Status::kOk);
  Asm a("bad-evict");
  a.LoadImm(R0, static_cast<int64_t>(wired_page->id)).Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(vas->eviction_point().Replace(
                std::make_shared<Graft>(
                    "bad-evict", *VerifyAndCompile(*inst, host_), kUser, 4096)),
            Status::kOk);

  ASSERT_EQ(mem_.EvictOne(), Status::kOk);
  // Verification failed; the original victim went out; the wired page stays.
  EXPECT_TRUE(wired_page->resident);
  EXPECT_EQ(mem_.stats().graft_rejections, 1u);
  EXPECT_EQ(mem_.stats().graft_overrules, 0u);
  EXPECT_EQ(vas->eviction_point().stats().bad_results, 1u);
}

TEST_F(MemorySystemTest, GraftChoosingForeignPageIsOverruled) {
  VirtualAddressSpace* victim_vas = mem_.CreateVas("victim-vas", 8);
  VirtualAddressSpace* other_vas = mem_.CreateVas("other-vas", 8);
  ASSERT_TRUE(mem_.Touch(victim_vas->id(), 0).ok());
  ASSERT_TRUE(mem_.Touch(other_vas->id(), 0).ok());
  victim_vas->FindResident(0)->referenced = false;
  other_vas->FindResident(0)->referenced = false;

  // victim_vas's graft maliciously names other_vas's page.
  Page* foreign = other_vas->FindResident(0);
  Asm a("malicious-evict");
  a.LoadImm(R0, static_cast<int64_t>(foreign->id)).Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(victim_vas->eviction_point().Replace(
                std::make_shared<Graft>(
                    "malicious-evict", *VerifyAndCompile(*inst, host_),
                    kUser, 4096)),
            Status::kOk);

  ASSERT_EQ(mem_.EvictOne(), Status::kOk);
  // Rule 8: the foreign application is untouched.
  EXPECT_TRUE(foreign->resident);
  EXPECT_EQ(other_vas->resident_count(), 1u);
  EXPECT_EQ(victim_vas->resident_count(), 0u);
  EXPECT_EQ(mem_.stats().graft_rejections, 1u);
}

TEST_F(MemorySystemTest, PageDaemonSweepsToWatermark) {
  VirtualAddressSpace* vas = mem_.CreateVas("app", 8);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
    vas->FindResident(i)->referenced = false;
  }
  EXPECT_EQ(mem_.pool().free_count(), 0u);
  ASSERT_EQ(mem_.RunPageDaemon(3), Status::kOk);
  EXPECT_GE(mem_.pool().free_count(), 3u);
  EXPECT_EQ(vas->resident_count(), 5u);
}

TEST_F(MemorySystemTest, PageDaemonStallsWhenAllWired) {
  VirtualAddressSpace* vas = mem_.CreateVas("wired", 8);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
    ASSERT_EQ(vas->Wire(i), Status::kOk);
  }
  // Four frames are free already; asking for five requires evicting a
  // wired page, which the daemon refuses.
  EXPECT_EQ(mem_.RunPageDaemon(4), Status::kOk);
  EXPECT_EQ(mem_.RunPageDaemon(5), Status::kUnavailable);
}

TEST_F(MemorySystemTest, PageDaemonTargetClampedToPoolSize) {
  EXPECT_EQ(mem_.RunPageDaemon(10'000), Status::kOk);  // Pool has 8 frames.
  EXPECT_EQ(mem_.pool().free_count(), 8u);
}

TEST_F(MemorySystemTest, CaoSwapAppliedOnOverrule) {
  VirtualAddressSpace* vas = mem_.CreateVas("app", 8);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
    vas->FindResident(i)->referenced = false;
  }
  Page* p0 = vas->FindResident(0);  // Global victim (LRU head).
  Page* p2 = vas->FindResident(2);  // Graft's replacement choice.

  Asm a("choose-p2");
  a.LoadImm(R0, static_cast<int64_t>(p2->id)).Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(vas->eviction_point().Replace(
                std::make_shared<Graft>(
                    "choose-p2", *VerifyAndCompile(*inst, host_), kUser, 4096)),
            Status::kOk);

  ASSERT_EQ(mem_.EvictOne(), Status::kOk);
  EXPECT_FALSE(p2->resident);
  // p0 took p2's LRU slot (the tail), not its old head slot.
  const auto order = mem_.pool().LruOrder();
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.back(), p0->id);
}

}  // namespace
}  // namespace vino
