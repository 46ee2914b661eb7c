// Index-range extraction from local predicates.
//
// Given a predicate tree and a target column (the column of a candidate
// index), ExtractRanges() computes the set of key ranges an index scan must
// visit, plus the residual predicate that still has to be evaluated on
// fetched rows. Handles the shapes used by the paper's workloads:
//
//   make = 'Mazda'                             -> one point range
//   salary < 50000                             -> one open range
//   age > 30 AND age <= 60                     -> one bounded range
//   make = 'Chevrolet' OR make = 'Mercedes'    -> two point ranges (Example 1)
//   make IN ('A','B','C')                      -> three point ranges
//
// Conjuncts that are not sargable on the target column become residual.
// Given the index's key type, numeric bounds are coerced to it, because an
// index compares keys in their own type's encoding:
//
//   year >= 1999.5 on an INT64 key             -> year >= 2000
//   year <= 1999.5 on an INT64 key             -> year <= 1999
//   year = 1999.5 on an INT64 key              -> no range (matches nothing)

#pragma once

#include <optional>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "types/value.h"

namespace ajr {

/// One contiguous key range. Absent bound = unbounded on that side.
struct KeyRange {
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  /// Point range [v, v].
  static KeyRange Point(Value v) {
    KeyRange r;
    r.lo = v;
    r.hi = std::move(v);
    return r;
  }
  /// Full range (-inf, +inf) — used when an index is scanned without a
  /// sargable predicate.
  static KeyRange All() { return KeyRange{}; }

  /// True if `v` falls inside the range.
  bool Contains(const Value& v) const;

  /// True if the range can match nothing (lo > hi, or lo == hi non-inclusive).
  bool Empty() const;

  std::string ToString() const;
};

/// Result of ExtractRanges.
struct RangeExtraction {
  /// Disjoint, sorted ranges the index scan must cover. If no conjunct was
  /// sargable this is a single KeyRange::All().
  std::vector<KeyRange> ranges;
  /// Conjuncts not absorbed into `ranges` (null if everything was absorbed).
  ExprPtr residual;
  /// True if at least one conjunct was absorbed into the ranges — i.e. the
  /// index actually applies a predicate (paper's S_LPI != 1 case).
  bool sargable = false;
};

/// Extracts index scan ranges for `column` from predicate `expr` (may be
/// null = always true). See file comment for supported shapes.
///
/// With `key_type` (the index's), numeric bounds are rewritten in that
/// type so they admit the keys the evaluator's numeric comparison admits
/// (exactly, for keys within +-2^53): a DOUBLE bound on an INT64 key rounds
/// inward to the nearest admitted integer (a lower bound up, an upper bound
/// down; a fractional bound becomes inclusive), and an INT64 bound on a
/// DOUBLE key becomes the equal DOUBLE. Ranges that admit no key are
/// dropped.
RangeExtraction ExtractRanges(const ExprPtr& expr, const std::string& column,
                              std::optional<DataType> key_type = std::nullopt);

/// Intersects two range lists (both sorted & disjoint); result sorted & disjoint.
std::vector<KeyRange> IntersectRanges(const std::vector<KeyRange>& a,
                                      const std::vector<KeyRange>& b);

/// Sorts ranges by lower bound and merges overlaps; drops empty ranges.
std::vector<KeyRange> NormalizeRanges(std::vector<KeyRange> ranges);

}  // namespace ajr
