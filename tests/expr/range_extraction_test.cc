#include "expr/range_extraction.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ajr {
namespace {

TEST(KeyRangeTest, PointContains) {
  auto r = KeyRange::Point(Value(5));
  EXPECT_TRUE(r.Contains(Value(5)));
  EXPECT_FALSE(r.Contains(Value(4)));
  EXPECT_FALSE(r.Contains(Value(6)));
  EXPECT_FALSE(r.Empty());
}

TEST(KeyRangeTest, AllContainsEverything) {
  auto r = KeyRange::All();
  EXPECT_TRUE(r.Contains(Value(INT64_MIN)));
  EXPECT_TRUE(r.Contains(Value(INT64_MAX)));
  EXPECT_FALSE(r.Empty());
}

TEST(KeyRangeTest, ExclusiveBounds) {
  KeyRange r;
  r.lo = Value(10);
  r.lo_inclusive = false;
  r.hi = Value(20);
  r.hi_inclusive = false;
  EXPECT_FALSE(r.Contains(Value(10)));
  EXPECT_TRUE(r.Contains(Value(11)));
  EXPECT_TRUE(r.Contains(Value(19)));
  EXPECT_FALSE(r.Contains(Value(20)));
}

TEST(KeyRangeTest, EmptyDetection) {
  KeyRange r;
  r.lo = Value(5);
  r.hi = Value(4);
  EXPECT_TRUE(r.Empty());
  KeyRange half;
  half.lo = Value(5);
  half.hi = Value(5);
  half.hi_inclusive = false;
  EXPECT_TRUE(half.Empty());
  EXPECT_FALSE(KeyRange::Point(Value(5)).Empty());
}

TEST(RangeExtractionTest, Equality) {
  auto ex = ExtractRanges(ColCmp("make", CompareOp::kEq, Value("Mazda")), "make");
  ASSERT_EQ(ex.ranges.size(), 1u);
  EXPECT_TRUE(ex.ranges[0].Contains(Value("Mazda")));
  EXPECT_FALSE(ex.ranges[0].Contains(Value("BMW")));
  EXPECT_EQ(ex.residual, nullptr);
  EXPECT_TRUE(ex.sargable);
}

TEST(RangeExtractionTest, OpenRange) {
  auto ex = ExtractRanges(ColCmp("salary", CompareOp::kLt, Value(50000)), "salary");
  ASSERT_EQ(ex.ranges.size(), 1u);
  EXPECT_TRUE(ex.ranges[0].Contains(Value(49999)));
  EXPECT_FALSE(ex.ranges[0].Contains(Value(50000)));
  EXPECT_FALSE(ex.ranges[0].lo.has_value());
}

TEST(RangeExtractionTest, BoundedConjunction) {
  auto e = And({ColCmp("age", CompareOp::kGt, Value(30)),
                ColCmp("age", CompareOp::kLe, Value(60))});
  auto ex = ExtractRanges(e, "age");
  ASSERT_EQ(ex.ranges.size(), 1u);
  EXPECT_FALSE(ex.ranges[0].Contains(Value(30)));
  EXPECT_TRUE(ex.ranges[0].Contains(Value(31)));
  EXPECT_TRUE(ex.ranges[0].Contains(Value(60)));
  EXPECT_FALSE(ex.ranges[0].Contains(Value(61)));
  EXPECT_EQ(ex.residual, nullptr);
}

TEST(RangeExtractionTest, OrOfEqualitiesGivesMultipleRanges) {
  // Example 1's predicate: make='Chevrolet' OR make='Mercedes'.
  auto e = Or({ColCmp("make", CompareOp::kEq, Value("Chevrolet")),
               ColCmp("make", CompareOp::kEq, Value("Mercedes"))});
  auto ex = ExtractRanges(e, "make");
  ASSERT_EQ(ex.ranges.size(), 2u);
  EXPECT_TRUE(ex.ranges[0].Contains(Value("Chevrolet")));
  EXPECT_TRUE(ex.ranges[1].Contains(Value("Mercedes")));
  EXPECT_EQ(ex.residual, nullptr);
}

TEST(RangeExtractionTest, InGivesPointRanges) {
  auto ex = ExtractRanges(In("make", {Value("B"), Value("A"), Value("C")}), "make");
  ASSERT_EQ(ex.ranges.size(), 3u);
  // sorted by lower bound
  EXPECT_TRUE(ex.ranges[0].Contains(Value("A")));
  EXPECT_TRUE(ex.ranges[2].Contains(Value("C")));
}

TEST(RangeExtractionTest, NonTargetConjunctsBecomeResidual) {
  auto e = And({ColCmp("make", CompareOp::kEq, Value("Mazda")),
                ColCmp("model", CompareOp::kEq, Value("323"))});
  auto ex = ExtractRanges(e, "make");
  ASSERT_EQ(ex.ranges.size(), 1u);
  ASSERT_NE(ex.residual, nullptr);
  EXPECT_EQ(ex.residual->ToString(), "model = '323'");
}

TEST(RangeExtractionTest, NotSargableShapesAllResidual) {
  auto e = ColCmp("make", CompareOp::kNe, Value("Mazda"));
  auto ex = ExtractRanges(e, "make");
  ASSERT_EQ(ex.ranges.size(), 1u);
  EXPECT_FALSE(ex.ranges[0].lo.has_value());
  EXPECT_FALSE(ex.ranges[0].hi.has_value());
  EXPECT_NE(ex.residual, nullptr);
  EXPECT_FALSE(ex.sargable);
}

TEST(RangeExtractionTest, MixedOrIsPoisonedByNonSargableArm) {
  auto e = Or({ColCmp("make", CompareOp::kEq, Value("A")),
               ColCmp("model", CompareOp::kEq, Value("M"))});
  auto ex = ExtractRanges(e, "make");
  EXPECT_FALSE(ex.sargable);
  ASSERT_NE(ex.residual, nullptr);
}

TEST(RangeExtractionTest, NullExprIsFullRange) {
  auto ex = ExtractRanges(nullptr, "make");
  ASSERT_EQ(ex.ranges.size(), 1u);
  EXPECT_FALSE(ex.sargable);
  EXPECT_EQ(ex.residual, nullptr);
}

TEST(RangeExtractionTest, ContradictionYieldsNoRanges) {
  auto e = And({ColCmp("age", CompareOp::kGt, Value(60)),
                ColCmp("age", CompareOp::kLt, Value(30))});
  auto ex = ExtractRanges(e, "age");
  EXPECT_TRUE(ex.ranges.empty());
}

TEST(RangeExtractionTest, IntersectRangesPairwise) {
  std::vector<KeyRange> a = {KeyRange::Point(Value(1)), KeyRange::Point(Value(5))};
  KeyRange wide;
  wide.lo = Value(2);
  wide.hi = Value(9);
  std::vector<KeyRange> b = {wide};
  auto out = IntersectRanges(a, b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].Contains(Value(5)));
  EXPECT_FALSE(out[0].Contains(Value(1)));
}

TEST(RangeExtractionTest, NormalizeMergesOverlaps) {
  KeyRange a;
  a.lo = Value(1);
  a.hi = Value(5);
  KeyRange b;
  b.lo = Value(3);
  b.hi = Value(8);
  auto out = NormalizeRanges({b, a});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lo->AsInt64(), 1);
  EXPECT_EQ(out[0].hi->AsInt64(), 8);
}

TEST(RangeExtractionTest, NormalizeKeepsDisjoint) {
  auto out =
      NormalizeRanges({KeyRange::Point(Value(5)), KeyRange::Point(Value(1))});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].lo->AsInt64(), 1);
  EXPECT_EQ(out[1].lo->AsInt64(), 5);
}

TEST(RangeExtractionTest, RangePlusEqualityIntersects) {
  auto e = And({ColCmp("age", CompareOp::kGt, Value(30)),
                In("age", {Value(25), Value(35), Value(45)})});
  auto ex = ExtractRanges(e, "age");
  ASSERT_EQ(ex.ranges.size(), 2u);
  EXPECT_TRUE(ex.ranges[0].Contains(Value(35)));
  EXPECT_TRUE(ex.ranges[1].Contains(Value(45)));
}

// A DOUBLE bound on an INT64 key rounds inward to the nearest admitted
// integer and becomes inclusive; an integral DOUBLE keeps its inclusivity.
TEST(RangeExtractionTest, DoubleBoundsCoerceToInt64Key) {
  auto one = [](CompareOp op, double v) {
    auto ex = ExtractRanges(ColCmp("year", op, Value(v)), "year",
                            DataType::kInt64);
    EXPECT_TRUE(ex.sargable);
    for (const KeyRange& r : ex.ranges) {
      if (r.lo.has_value()) EXPECT_EQ(r.lo->type(), DataType::kInt64);
      if (r.hi.has_value()) EXPECT_EQ(r.hi->type(), DataType::kInt64);
    }
    return ex.ranges;
  };
  auto ge = one(CompareOp::kGe, 1999.5);
  ASSERT_EQ(ge.size(), 1u);
  EXPECT_EQ(ge[0].lo->AsInt64(), 2000);
  EXPECT_TRUE(ge[0].lo_inclusive);
  EXPECT_FALSE(ge[0].hi.has_value());

  auto gt = one(CompareOp::kGt, 1999.5);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_EQ(gt[0].lo->AsInt64(), 2000);
  EXPECT_TRUE(gt[0].lo_inclusive);

  auto le = one(CompareOp::kLe, 1999.5);
  ASSERT_EQ(le.size(), 1u);
  EXPECT_EQ(le[0].hi->AsInt64(), 1999);
  EXPECT_TRUE(le[0].hi_inclusive);

  auto lt = one(CompareOp::kLt, -1999.5);
  ASSERT_EQ(lt.size(), 1u);
  EXPECT_EQ(lt[0].hi->AsInt64(), -2000);
  EXPECT_TRUE(lt[0].hi_inclusive);

  auto lt_integral = one(CompareOp::kLt, 2000.0);
  ASSERT_EQ(lt_integral.size(), 1u);
  EXPECT_EQ(lt_integral[0].hi->AsInt64(), 2000);
  EXPECT_FALSE(lt_integral[0].hi_inclusive);

  EXPECT_TRUE(one(CompareOp::kEq, 1999.5).empty());
  auto eq = one(CompareOp::kEq, 2000.0);
  ASSERT_EQ(eq.size(), 1u);
  EXPECT_EQ(eq[0].lo->AsInt64(), 2000);
  EXPECT_EQ(eq[0].hi->AsInt64(), 2000);
}

// Bounds beyond the INT64 range admit every key or none; NaN compares
// equal to every key, so an inclusive NaN bound admits all and an
// exclusive one none.
TEST(RangeExtractionTest, OutOfRangeAndNanBoundsOnInt64Key) {
  auto ranges = [](CompareOp op, double v) {
    return ExtractRanges(ColCmp("year", op, Value(v)), "year",
                         DataType::kInt64)
        .ranges;
  };
  EXPECT_TRUE(ranges(CompareOp::kGe, 1e19).empty());
  EXPECT_TRUE(ranges(CompareOp::kLe, -1e19).empty());
  auto all_below = ranges(CompareOp::kLt, 1e19);
  ASSERT_EQ(all_below.size(), 1u);
  EXPECT_FALSE(all_below[0].lo.has_value());
  EXPECT_FALSE(all_below[0].hi.has_value());
  auto all_above = ranges(CompareOp::kGt, -INFINITY);
  ASSERT_EQ(all_above.size(), 1u);
  EXPECT_FALSE(all_above[0].lo.has_value());

  auto nan_ge = ranges(CompareOp::kGe, NAN);
  ASSERT_EQ(nan_ge.size(), 1u);
  EXPECT_FALSE(nan_ge[0].lo.has_value());
  EXPECT_TRUE(ranges(CompareOp::kGt, NAN).empty());
}

// An INT64 bound on a DOUBLE key becomes the equal DOUBLE; keys of other
// types and ranges extracted without a key type are left alone.
TEST(RangeExtractionTest, Int64BoundsCoerceToDoubleKey) {
  auto ex = ExtractRanges(ColCmp("salary", CompareOp::kLt, Value(50000)),
                          "salary", DataType::kDouble);
  ASSERT_EQ(ex.ranges.size(), 1u);
  ASSERT_EQ(ex.ranges[0].hi->type(), DataType::kDouble);
  EXPECT_EQ(ex.ranges[0].hi->AsDouble(), 50000.0);
  EXPECT_FALSE(ex.ranges[0].hi_inclusive);

  auto untyped =
      ExtractRanges(ColCmp("year", CompareOp::kGe, Value(1999.5)), "year");
  ASSERT_EQ(untyped.ranges.size(), 1u);
  EXPECT_EQ(untyped.ranges[0].lo->type(), DataType::kDouble);
}

}  // namespace
}  // namespace ajr
