#include "data/storage_element.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace pga::data {
namespace {

StorageElement make(std::uint64_t capacity = 0, std::size_t slots = 2) {
  StorageElementConfig config;
  config.site = "osg";
  config.capacity_bytes = capacity;
  config.transfer_slots = slots;
  return StorageElement(std::move(config));
}

TEST(StorageElement, RejectsBrokenConfigs) {
  EXPECT_THROW(StorageElement se({}), common::InvalidArgument);  // empty site
  StorageElementConfig bad_bw;
  bad_bw.site = "x";
  bad_bw.bandwidth_out_bps = 0;
  EXPECT_THROW(StorageElement se(bad_bw), common::InvalidArgument);
  StorageElementConfig no_slots;
  no_slots.site = "x";
  no_slots.transfer_slots = 0;
  EXPECT_THROW(StorageElement se(no_slots), common::InvalidArgument);
}

TEST(StorageElement, RejectsNonFiniteBandwidths) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kNan, -kNan, kInf, -kInf, -5.0}) {
    StorageElementConfig in;
    in.site = "x";
    in.bandwidth_in_bps = bad;
    EXPECT_THROW(StorageElement se(in), common::InvalidArgument) << bad;
    StorageElementConfig out;
    out.site = "x";
    out.bandwidth_out_bps = bad;
    EXPECT_THROW(StorageElement se(out), common::InvalidArgument) << bad;
  }
  StorageElementConfig ok;
  ok.site = "x";
  ok.bandwidth_in_bps = 1e-3;
  ok.bandwidth_out_bps = 1e12;
  EXPECT_NO_THROW(StorageElement se(ok));
}

TEST(StorageElement, StoreEvictAndByteAccounting) {
  auto se = make();
  EXPECT_FALSE(se.holds("a"));
  EXPECT_TRUE(se.store("a", 100));
  EXPECT_TRUE(se.store("b", 50));
  EXPECT_TRUE(se.holds("a"));
  EXPECT_EQ(se.used_bytes(), 150u);
  EXPECT_EQ(se.file_count(), 2u);
  // Unbounded scratch reports effectively infinite headroom.
  EXPECT_EQ(se.free_bytes(), std::numeric_limits<std::uint64_t>::max());

  // Re-storing replaces the recorded size instead of double counting.
  EXPECT_TRUE(se.store("a", 30));
  EXPECT_EQ(se.used_bytes(), 80u);

  se.evict("a");
  EXPECT_FALSE(se.holds("a"));
  EXPECT_EQ(se.used_bytes(), 50u);
  se.evict("a");  // double evict is a no-op
  EXPECT_EQ(se.used_bytes(), 50u);
}

TEST(StorageElement, BoundedCapacityRefusesOverflow) {
  auto se = make(/*capacity=*/100);
  EXPECT_TRUE(se.store("a", 80));
  EXPECT_EQ(se.free_bytes(), 20u);
  // Doesn't fit: nothing stored, accounting untouched.
  EXPECT_FALSE(se.store("b", 30));
  EXPECT_FALSE(se.holds("b"));
  EXPECT_EQ(se.used_bytes(), 80u);
  // Shrinking an existing file frees the difference first.
  EXPECT_TRUE(se.store("a", 60));
  EXPECT_TRUE(se.store("b", 30));
  EXPECT_EQ(se.free_bytes(), 10u);
}

TEST(StorageElement, SlotAccounting) {
  auto se = make(0, /*slots=*/2);
  EXPECT_TRUE(se.slot_available());
  se.acquire_slot();
  se.acquire_slot();
  EXPECT_FALSE(se.slot_available());
  EXPECT_EQ(se.active_transfers(), 2u);
  EXPECT_THROW(se.acquire_slot(), common::WorkflowError);
  se.release_slot();
  EXPECT_TRUE(se.slot_available());
  se.release_slot();
  EXPECT_THROW(se.release_slot(), common::WorkflowError);
}

}  // namespace
}  // namespace pga::data
