#include "expr/range_extraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace ajr {

namespace {

// Compares lower bounds; nullopt = -infinity; at equal values an inclusive
// bound is "lower" (admits more).
int CompareLowerBounds(const KeyRange& a, const KeyRange& b) {
  if (!a.lo.has_value() && !b.lo.has_value()) return 0;
  if (!a.lo.has_value()) return -1;
  if (!b.lo.has_value()) return 1;
  int c = a.lo->Compare(*b.lo);
  if (c != 0) return c;
  if (a.lo_inclusive == b.lo_inclusive) return 0;
  return a.lo_inclusive ? -1 : 1;
}

// Compares upper bounds; nullopt = +infinity; at equal values an inclusive
// bound is "higher" (admits more).
int CompareUpperBounds(const KeyRange& a, const KeyRange& b) {
  if (!a.hi.has_value() && !b.hi.has_value()) return 0;
  if (!a.hi.has_value()) return 1;
  if (!b.hi.has_value()) return -1;
  int c = a.hi->Compare(*b.hi);
  if (c != 0) return c;
  if (a.hi_inclusive == b.hi_inclusive) return 0;
  return a.hi_inclusive ? 1 : -1;
}

// Intersection of two single ranges; may be empty.
KeyRange IntersectOne(const KeyRange& a, const KeyRange& b) {
  KeyRange out;
  const KeyRange& lo_src = CompareLowerBounds(a, b) >= 0 ? a : b;
  out.lo = lo_src.lo;
  out.lo_inclusive = lo_src.lo_inclusive;
  const KeyRange& hi_src = CompareUpperBounds(a, b) <= 0 ? a : b;
  out.hi = hi_src.hi;
  out.hi_inclusive = hi_src.hi_inclusive;
  return out;
}

// True if ranges a and b (a.lo <= b.lo) overlap.
bool Overlaps(const KeyRange& a, const KeyRange& b) {
  if (!a.hi.has_value() || !b.lo.has_value()) return true;
  int c = a.hi->Compare(*b.lo);
  if (c != 0) return c > 0;
  return a.hi_inclusive && b.lo_inclusive;
}

// Converts a sargable comparison (col <op> const, already normalized so the
// column is on the left) into a range. kNe is not sargable here.
std::optional<KeyRange> RangeFromComparison(CompareOp op, Value constant) {
  KeyRange r;
  switch (op) {
    case CompareOp::kEq:
      return KeyRange::Point(std::move(constant));
    case CompareOp::kLt:
      r.hi = std::move(constant);
      r.hi_inclusive = false;
      return r;
    case CompareOp::kLe:
      r.hi = std::move(constant);
      return r;
    case CompareOp::kGt:
      r.lo = std::move(constant);
      r.lo_inclusive = false;
      return r;
    case CompareOp::kGe:
      r.lo = std::move(constant);
      return r;
    case CompareOp::kNe:
      return std::nullopt;
  }
  return std::nullopt;
}

// If `e` is `target <op> const` (either operand order), returns the
// normalized (op, const) with the column on the left.
std::optional<std::pair<CompareOp, Value>> AsColConst(const Expr& e,
                                                      const std::string& target) {
  if (e.kind() != ExprKind::kComparison) return std::nullopt;
  const auto& cmp = static_cast<const ComparisonExpr&>(e);
  const Expr* l = cmp.lhs().get();
  const Expr* r = cmp.rhs().get();
  CompareOp op = cmp.op();
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
    std::swap(l, r);
    switch (cmp.op()) {
      case CompareOp::kLt:
        op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        op = CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  if (static_cast<const ColumnRefExpr*>(l)->name() != target) return std::nullopt;
  return std::make_pair(op, static_cast<const LiteralExpr*>(r)->value());
}

// Tries to turn one conjunct into a union of ranges on `target`.
// Supported: col-op-const, IN, OR of such shapes (all on `target`).
std::optional<std::vector<KeyRange>> AbsorbConjunct(const ExprPtr& conjunct,
                                                    const std::string& target) {
  if (auto cc = AsColConst(*conjunct, target)) {
    auto r = RangeFromComparison(cc->first, std::move(cc->second));
    if (!r.has_value()) return std::nullopt;
    return std::vector<KeyRange>{*std::move(r)};
  }
  if (conjunct->kind() == ExprKind::kIn) {
    const auto& in = static_cast<const InExpr&>(*conjunct);
    if (in.column() != target) return std::nullopt;
    std::vector<KeyRange> out;
    out.reserve(in.values().size());
    for (const auto& v : in.values()) out.push_back(KeyRange::Point(v));
    return NormalizeRanges(std::move(out));
  }
  if (conjunct->kind() == ExprKind::kOr) {
    const auto& logical = static_cast<const LogicalExpr&>(*conjunct);
    std::vector<KeyRange> out;
    for (const auto& child : logical.children()) {
      auto sub = AbsorbConjunct(child, target);
      if (!sub.has_value()) return std::nullopt;  // one non-sargable arm poisons the OR
      out.insert(out.end(), sub->begin(), sub->end());
    }
    return NormalizeRanges(std::move(out));
  }
  return std::nullopt;
}

// Outcome of coercing one bound to an INT64 key.
enum class Coerced { kBound, kUnbounded, kEmpty };

// Coerces a DOUBLE bound `bound` (lower when `lower`) to an INT64 key in
// place. Keys admitted are those k with (double)k on the bound's side, so a
// lower bound rounds up and an upper bound rounds down; a rounded bound is
// inclusive. NaN compares equal to every key (Value::Compare and the
// evaluator's three-way compare), so an inclusive NaN bound admits all
// keys and an exclusive one none.
Coerced CoerceBoundToInt64(std::optional<Value>* bound, bool* inclusive,
                           bool lower) {
  const double d = (*bound)->AsDouble();
  if (std::isnan(d)) return *inclusive ? Coerced::kUnbounded : Coerced::kEmpty;
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
  // Beyond the INT64 range the bound either admits every key or none.
  if (d >= kTwo63) return lower ? Coerced::kEmpty : Coerced::kUnbounded;
  if (d < -kTwo63) return lower ? Coerced::kUnbounded : Coerced::kEmpty;
  const double rounded = lower ? std::ceil(d) : std::floor(d);
  if (rounded != d) *inclusive = true;
  *bound = Value(static_cast<int64_t>(rounded));
  return Coerced::kBound;
}

// See ExtractRanges: rewrites numeric bounds in `key_type` and drops ranges
// that admit no key.
std::vector<KeyRange> CoerceToKeyType(std::vector<KeyRange> ranges,
                                      DataType key_type) {
  std::vector<KeyRange> out;
  out.reserve(ranges.size());
  for (KeyRange& r : ranges) {
    bool empty = false;
    for (bool lower : {true, false}) {
      std::optional<Value>& bound = lower ? r.lo : r.hi;
      bool& inclusive = lower ? r.lo_inclusive : r.hi_inclusive;
      if (!bound.has_value()) continue;
      const DataType bt = bound->type();
      if (key_type == DataType::kInt64 && bt == DataType::kDouble) {
        switch (CoerceBoundToInt64(&bound, &inclusive, lower)) {
          case Coerced::kBound:
            break;
          case Coerced::kUnbounded:
            bound.reset();
            inclusive = true;
            break;
          case Coerced::kEmpty:
            empty = true;
            break;
        }
      } else if (key_type == DataType::kDouble && bt == DataType::kInt64) {
        bound = Value(static_cast<double>(bound->AsInt64()));
      }
    }
    if (!empty && !r.Empty()) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

bool KeyRange::Contains(const Value& v) const {
  if (lo.has_value()) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (hi.has_value()) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

bool KeyRange::Empty() const {
  if (!lo.has_value() || !hi.has_value()) return false;
  int c = lo->Compare(*hi);
  if (c > 0) return true;
  return c == 0 && !(lo_inclusive && hi_inclusive);
}

std::string KeyRange::ToString() const {
  std::string out = lo_inclusive ? "[" : "(";
  out += lo.has_value() ? lo->ToString() : "-inf";
  out += ", ";
  out += hi.has_value() ? hi->ToString() : "+inf";
  out += hi_inclusive ? "]" : ")";
  return out;
}

std::vector<KeyRange> NormalizeRanges(std::vector<KeyRange> ranges) {
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [](const KeyRange& r) { return r.Empty(); }),
               ranges.end());
  std::sort(ranges.begin(), ranges.end(), [](const KeyRange& a, const KeyRange& b) {
    int c = CompareLowerBounds(a, b);
    if (c != 0) return c < 0;
    return CompareUpperBounds(a, b) < 0;
  });
  std::vector<KeyRange> out;
  for (auto& r : ranges) {
    if (!out.empty() && Overlaps(out.back(), r)) {
      if (CompareUpperBounds(out.back(), r) < 0) {
        out.back().hi = r.hi;
        out.back().hi_inclusive = r.hi_inclusive;
      }
    } else {
      out.push_back(std::move(r));
    }
  }
  return out;
}

std::vector<KeyRange> IntersectRanges(const std::vector<KeyRange>& a,
                                      const std::vector<KeyRange>& b) {
  std::vector<KeyRange> out;
  for (const auto& ra : a) {
    for (const auto& rb : b) {
      KeyRange r = IntersectOne(ra, rb);
      if (!r.Empty()) out.push_back(std::move(r));
    }
  }
  return NormalizeRanges(std::move(out));
}

RangeExtraction ExtractRanges(const ExprPtr& expr, const std::string& column,
                              std::optional<DataType> key_type) {
  RangeExtraction result;
  result.ranges = {KeyRange::All()};
  std::vector<ExprPtr> residual_conjuncts;
  for (const auto& conjunct : SplitConjuncts(expr)) {
    auto absorbed = AbsorbConjunct(conjunct, column);
    if (absorbed.has_value()) {
      result.ranges = IntersectRanges(result.ranges, *absorbed);
      result.sargable = true;
    } else {
      residual_conjuncts.push_back(conjunct);
    }
  }
  if (key_type.has_value()) {
    result.ranges = CoerceToKeyType(std::move(result.ranges), *key_type);
  }
  result.residual = And(std::move(residual_conjuncts));
  return result;
}

}  // namespace ajr
