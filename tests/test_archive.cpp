#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/archive.h"
#include "mem/hierarchy.h"
#include "pipeline/uop.h"

namespace mflush {
namespace {

// Raw memcpy serialization accepts only types whose every byte is value, so
// a record with a compiler-inserted padding hole cannot reach a stream (the
// hole would carry uninitialized bytes and break canonical snapshot bytes
// across processes). These are compile-time facts: a regression fails the
// build of this test.

struct Holey {
  std::uint8_t flag = 0;
  std::uint64_t value = 0;  // 7-byte hole before this member
};

struct HoldsDouble {
  double x = 0.0;  // -0.0 and NaN payloads: not one representation per value
};

struct ExplicitlyPadded {
  std::uint8_t flag = 0;
  std::uint8_t _pad[7] = {};
  std::uint64_t value = 0;
};

/// Whether ArchiveWriter::put accepts a T.
template <class T>
concept Puttable = requires(ArchiveWriter w, const T& v) { w.put(v); };

static_assert(!Puttable<Holey>);
static_assert(!Puttable<HoldsDouble>);
static_assert(!Puttable<std::array<Holey, 2>>);
static_assert(Puttable<ExplicitlyPadded>);
static_assert(Puttable<double>);  // scalar floating point is allowed

// The records the snapshot memcpys, MemCompletion with its layout unchanged
// by the explicit padding.
static_assert(RawArchivable<MicroOp>);
static_assert(RawArchivable<MemCompletion>);
static_assert(sizeof(MemCompletion) == 40);
static_assert(offsetof(MemCompletion, issue_cycle) == 16);
static_assert(offsetof(MemCompletion, l2_bank) == 36);

TEST(RawArchivable, PaddedRecordsAndDoubleHoldingStructsAreRejected) {
  EXPECT_FALSE(RawArchivable<Holey>);
  EXPECT_FALSE(RawArchivable<HoldsDouble>);
  EXPECT_TRUE(RawArchivable<ExplicitlyPadded>);
}

/// A non-raw element that counts its constructions.
struct Counted {
  static inline std::size_t constructed = 0;
  std::string s;
  Counted() { ++constructed; }
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(s);
  }
};

TEST(ArchiveReader, ForgedCountGrowsNoFurtherThanTheFirstShortElement) {
  // A count of non-raw elements is bounded only by the bytes left; decode
  // must not default-construct that many elements before reading one.
  ArchiveWriter w;
  w.put<std::uint64_t>(4096);
  for (int i = 0; i < 4096; ++i) w.put<std::uint8_t>(0xff);
  std::vector<Counted> v;
  Counted::constructed = 0;
  ArchiveReader r(w.bytes());
  EXPECT_THROW(r.io(v), std::runtime_error);
  EXPECT_LE(Counted::constructed, 1u);
}

}  // namespace
}  // namespace mflush
