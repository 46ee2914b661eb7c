#include "checker.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "types/row_view.h"

namespace ajr::perfbench {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t DoubleBits(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and +0.0 are one value
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Per-type tags keep e.g. INT64 1 and BOOL true apart.
uint64_t HashInt(int64_t v) { return Mix64(static_cast<uint64_t>(v) ^ 0x11); }
uint64_t HashDouble(double d) { return Mix64(DoubleBits(d) ^ 0x22); }
uint64_t HashBool(bool b) { return Mix64(b ? 0x34 : 0x33); }
uint64_t HashString(std::string_view s) { return Mix64(HashBytes(s) ^ 0x44); }

uint64_t CombineRow(uint64_t h, uint64_t value_hash) { return Mix64(h ^ value_hash); }
constexpr uint64_t kRowSeed = 0x6a09e667f3bcc908ULL;

uint64_t HashCell(const RowView& row, size_t slot) {
  switch (row.type(slot)) {
    case DataType::kInt64: return HashInt(row.GetInt64(slot));
    case DataType::kDouble: return HashDouble(row.GetDouble(slot));
    case DataType::kBool: return HashBool(row.GetBool(slot));
    case DataType::kString: return HashString(row.GetString(slot));
  }
  return 0;
}

/// One typed value, read from a cell or a literal, compared the way Value
/// compares: same types directly, INT64 against DOUBLE numerically.
struct Scalar {
  DataType type = DataType::kInt64;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

Scalar FromCell(const RowView& row, size_t slot) {
  Scalar v;
  v.type = row.type(slot);
  switch (v.type) {
    case DataType::kInt64: v.i = row.GetInt64(slot); break;
    case DataType::kDouble: v.d = row.GetDouble(slot); break;
    case DataType::kBool: v.i = row.GetBool(slot) ? 1 : 0; break;
    case DataType::kString: v.s = row.GetString(slot); break;
  }
  return v;
}

/// `value` must outlive the Scalar (strings are viewed, not copied).
Scalar FromValue(const Value& value) {
  Scalar v;
  v.type = value.type();
  switch (v.type) {
    case DataType::kInt64: v.i = value.AsInt64(); break;
    case DataType::kDouble: v.d = value.AsDouble(); break;
    case DataType::kBool: v.i = value.AsBool() ? 1 : 0; break;
    case DataType::kString: v.s = value.AsString(); break;
  }
  return v;
}

bool IsNumeric(DataType t) { return t == DataType::kInt64 || t == DataType::kDouble; }

bool Comparable(DataType a, DataType b) {
  return a == b || (IsNumeric(a) && IsNumeric(b));
}

double Numeric(const Scalar& v) {
  return v.type == DataType::kInt64 ? static_cast<double>(v.i) : v.d;
}

int Compare(const Scalar& a, const Scalar& b) {
  if (a.type != b.type) {
    double x = Numeric(a), y = Numeric(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  switch (a.type) {
    case DataType::kInt64:
    case DataType::kBool:
      return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    case DataType::kDouble:
      return a.d < b.d ? -1 : (a.d > b.d ? 1 : 0);
    case DataType::kString: {
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

bool Holds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

/// `a op b` rewritten as `b op' a`.
CompareOp Flip(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

/// Exact text of a value for cache keys (ToString rounds doubles). Built by
/// appending: GCC 12 warns falsely (-Wrestrict) on `"literal" + std::string`.
void AppendValueKey(const Value& v, std::string* key) {
  switch (v.type()) {
    case DataType::kInt64:
      key->append("i").append(std::to_string(v.AsInt64()));
      break;
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "d%016llx",
                    static_cast<unsigned long long>(DoubleBits(v.AsDouble())));
      key->append(buf);
      break;
    }
    case DataType::kBool:
      key->append(v.AsBool() ? "b1" : "b0");
      break;
    case DataType::kString:
      key->append("s").append(std::to_string(v.AsString().size())).append(":");
      key->append(v.AsString());
      break;
  }
}

void AppendLeafKey(const Expr& e, std::string* key) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      key->append("L");
      AppendValueKey(static_cast<const LiteralExpr&>(e).value(), key);
      break;
    case ExprKind::kColumnRef:
      key->append("C").append(static_cast<const ColumnRefExpr&>(e).name()).append("\x1e");
      break;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      key->append("(").append(std::to_string(static_cast<int>(c.op())));
      AppendLeafKey(*c.lhs(), key);
      AppendLeafKey(*c.rhs(), key);
      key->append(")");
      break;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(e);
      key->append("I").append(in.column()).append("\x1e");
      for (const Value& v : in.values()) {
        AppendValueKey(v, key);
        key->append("\x1d");
      }
      break;
    }
    default:
      key->append("?");
  }
}

template <class Pred>
std::vector<uint64_t> ScanRows(const HeapTable& table, Pred pred) {
  size_t n = table.num_rows();
  std::vector<uint64_t> bm((n + 63) / 64, 0);
  for (Rid rid = 0; rid < n; ++rid) {
    if (pred(table.View(rid))) bm[rid >> 6] |= uint64_t{1} << (rid & 63);
  }
  return bm;
}

std::vector<uint64_t> ConstantBitmap(size_t n, bool value) {
  std::vector<uint64_t> bm((n + 63) / 64, value ? ~uint64_t{0} : 0);
  if (value && n % 64 != 0) bm.back() = (uint64_t{1} << (n % 64)) - 1;
  return bm;
}

bool Test(const std::vector<uint64_t>& bm, Rid rid) {
  return (bm[rid >> 6] >> (rid & 63)) & 1;
}

StatusOr<size_t> Slot(const TableEntry& table, const std::string& column) {
  return table.schema().ColumnIndex(column);
}

}  // namespace

uint64_t HashRow(const Row& row) {
  uint64_t h = kRowSeed;
  for (const Value& v : row) {
    uint64_t vh = 0;
    switch (v.type()) {
      case DataType::kInt64: vh = HashInt(v.AsInt64()); break;
      case DataType::kDouble: vh = HashDouble(v.AsDouble()); break;
      case DataType::kBool: vh = HashBool(v.AsBool()); break;
      case DataType::kString: vh = HashString(v.AsString()); break;
    }
    h = CombineRow(h, vh);
  }
  return Mix64(h);
}

namespace {

/// A join-column value: numbers compare numerically (as Value does),
/// strings by content.
struct JoinKey {
  uint64_t bits = 0;  ///< canonical double bits, or the bool
  std::string_view str;
  uint8_t kind = 0;  ///< 0 number, 1 string, 2 bool
  bool operator==(const JoinKey& o) const {
    return kind == o.kind && bits == o.bits && str == o.str;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    return k.kind == 1 ? HashBytes(k.str) : Mix64(k.bits + k.kind);
  }
};

JoinKey JoinKeyOf(const RowView& row, size_t slot) {
  JoinKey k;
  switch (row.type(slot)) {
    case DataType::kInt64:
      k.bits = DoubleBits(static_cast<double>(row.GetInt64(slot)));
      break;
    case DataType::kDouble:
      k.bits = DoubleBits(row.GetDouble(slot));
      break;
    case DataType::kBool:
      k.kind = 2;
      k.bits = row.GetBool(slot) ? 1 : 0;
      break;
    case DataType::kString:
      k.kind = 1;
      k.str = row.GetString(slot);
      break;
  }
  return k;
}

}  // namespace

struct ReferenceChecker::ColumnHash {
  std::unordered_map<JoinKey, uint32_t, JoinKeyHash> group_of;
  std::vector<uint32_t> offsets;  ///< group g spans [offsets[g], offsets[g+1])
  std::vector<Rid> rids;

  /// Groups `table`'s rows (those set in `filter`, or all when null) by the
  /// value of `slot`.
  ColumnHash(const HeapTable& table, size_t slot, const Bitmap* filter);
};

ReferenceChecker::ReferenceChecker(const Catalog* catalog) : catalog_(catalog) {}
ReferenceChecker::~ReferenceChecker() = default;

StatusOr<const ReferenceChecker::Bitmap*> ReferenceChecker::LeafBitmap(
    const TableEntry& table, const Expr& leaf) {
  std::string key = table.name();
  key.append("\x1f");
  AppendLeafKey(leaf, &key);
  auto it = leaf_cache_.find(key);
  if (it != leaf_cache_.end()) return &it->second;

  const HeapTable& heap = table.table();
  Bitmap bm;
  switch (leaf.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(leaf).value();
      if (v.type() != DataType::kBool) {
        return Status::InvalidArgument("non-boolean literal predicate");
      }
      bm = ConstantBitmap(heap.num_rows(), v.AsBool());
      break;
    }
    case ExprKind::kColumnRef: {
      auto slot = Slot(table, static_cast<const ColumnRefExpr&>(leaf).name());
      if (!slot.ok()) return slot.status();
      size_t s = *slot;
      if (table.schema().column(s).type != DataType::kBool) {
        return Status::InvalidArgument("non-boolean column predicate");
      }
      bm = ScanRows(heap, [s](const RowView& r) { return r.GetBool(s); });
      break;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(leaf);
      const Expr& lhs = *cmp.lhs();
      const Expr& rhs = *cmp.rhs();
      auto type_of = [&](const Expr& e) -> StatusOr<DataType> {
        if (e.kind() == ExprKind::kLiteral) {
          return static_cast<const LiteralExpr&>(e).value().type();
        }
        if (e.kind() != ExprKind::kColumnRef) {
          return Status::InvalidArgument("comparison operand is not a column or literal");
        }
        auto slot = Slot(table, static_cast<const ColumnRefExpr&>(e).name());
        if (!slot.ok()) return slot.status();
        return table.schema().column(*slot).type;
      };
      auto lt = type_of(lhs);
      if (!lt.ok()) return lt.status();
      auto rt = type_of(rhs);
      if (!rt.ok()) return rt.status();
      if (!Comparable(*lt, *rt)) {
        return Status::InvalidArgument("comparison between incompatible types: " +
                                       leaf.ToString());
      }
      bool lcol = lhs.kind() == ExprKind::kColumnRef;
      bool rcol = rhs.kind() == ExprKind::kColumnRef;
      CompareOp op = cmp.op();
      if (lcol && rcol) {
        size_t a = *Slot(table, static_cast<const ColumnRefExpr&>(lhs).name());
        size_t b = *Slot(table, static_cast<const ColumnRefExpr&>(rhs).name());
        bm = ScanRows(heap, [=](const RowView& r) {
          return Holds(op, Compare(FromCell(r, a), FromCell(r, b)));
        });
      } else if (lcol || rcol) {
        const Expr& col = lcol ? lhs : rhs;
        const Value& lit = static_cast<const LiteralExpr&>(lcol ? rhs : lhs).value();
        if (!lcol) op = Flip(op);
        size_t s = *Slot(table, static_cast<const ColumnRefExpr&>(col).name());
        Scalar v = FromValue(lit);
        bm = ScanRows(heap, [&, s, op](const RowView& r) {
          return Holds(op, Compare(FromCell(r, s), v));
        });
      } else {
        const Value& a = static_cast<const LiteralExpr&>(lhs).value();
        const Value& b = static_cast<const LiteralExpr&>(rhs).value();
        bm = ConstantBitmap(heap.num_rows(),
                            Holds(op, Compare(FromValue(a), FromValue(b))));
      }
      break;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(leaf);
      auto slot = Slot(table, in.column());
      if (!slot.ok()) return slot.status();
      size_t s = *slot;
      std::vector<Scalar> values;
      for (const Value& v : in.values()) {
        if (!Comparable(table.schema().column(s).type, v.type())) {
          return Status::InvalidArgument("IN list of incompatible type: " +
                                         leaf.ToString());
        }
        values.push_back(FromValue(v));
      }
      bm = ScanRows(heap, [&, s](const RowView& r) {
        Scalar c = FromCell(r, s);
        for (const Scalar& v : values) {
          if (Compare(c, v) == 0) return true;
        }
        return false;
      });
      break;
    }
    default:
      return Status::InvalidArgument("not a leaf predicate");
  }
  return &leaf_cache_.emplace(std::move(key), std::move(bm)).first->second;
}

StatusOr<ReferenceChecker::Bitmap> ReferenceChecker::EvalPredicate(
    const TableEntry& table, const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& children = static_cast<const LogicalExpr&>(expr).children();
      bool is_and = expr.kind() == ExprKind::kAnd;
      Bitmap acc = ConstantBitmap(table.table().num_rows(), is_and);
      for (const ExprPtr& child : children) {
        auto bm = EvalPredicate(table, *child);
        if (!bm.ok()) return bm.status();
        for (size_t w = 0; w < acc.size(); ++w) {
          acc[w] = is_and ? (acc[w] & (*bm)[w]) : (acc[w] | (*bm)[w]);
        }
      }
      return acc;
    }
    case ExprKind::kNot: {
      auto bm = EvalPredicate(table, *static_cast<const NotExpr&>(expr).child());
      if (!bm.ok()) return bm.status();
      Bitmap all = ConstantBitmap(table.table().num_rows(), true);
      for (size_t w = 0; w < all.size(); ++w) all[w] &= ~(*bm)[w];
      return all;
    }
    default: {
      auto leaf = LeafBitmap(table, expr);
      if (!leaf.ok()) return leaf.status();
      return **leaf;
    }
  }
}

ReferenceChecker::ColumnHash::ColumnHash(const HeapTable& table, size_t slot,
                                         const Bitmap* filter) {
  std::vector<uint32_t> group_of_row;
  std::vector<uint32_t> counts;
  std::vector<Rid> rows;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    if (filter != nullptr && !Test(*filter, rid)) continue;
    auto [it, inserted] = group_of.emplace(JoinKeyOf(table.View(rid), slot),
                                           static_cast<uint32_t>(counts.size()));
    if (inserted) counts.push_back(0);
    ++counts[it->second];
    group_of_row.push_back(it->second);
    rows.push_back(rid);
  }
  offsets.assign(counts.size() + 1, 0);
  for (size_t g = 0; g < counts.size(); ++g) offsets[g + 1] = offsets[g] + counts[g];
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  rids.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) rids[fill[group_of_row[i]]++] = rows[i];
}

const ReferenceChecker::ColumnHash& ReferenceChecker::HashOf(const TableEntry& table,
                                                              size_t column) {
  auto& hash = hash_cache_[{&table, column}];
  if (hash == nullptr) hash = std::make_unique<ColumnHash>(table.table(), column, nullptr);
  return *hash;
}

StatusOr<ResultDigest> ReferenceChecker::Evaluate(const JoinQuery& query) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  const size_t n = query.tables.size();

  std::vector<const TableEntry*> entries(n);
  std::vector<Bitmap> filters(n);  // empty = every row passes
  std::vector<size_t> counts(n);
  for (size_t t = 0; t < n; ++t) {
    auto entry = catalog_->GetTable(query.tables[t].table);
    if (!entry.ok()) return entry.status();
    entries[t] = *entry;
    counts[t] = entries[t]->table().num_rows();
    if (query.local_predicates[t] != nullptr) {
      auto bm = EvalPredicate(*entries[t], *query.local_predicates[t]);
      if (!bm.ok()) return bm.status();
      filters[t] = std::move(*bm);
      counts[t] = 0;
      for (uint64_t w : filters[t]) counts[t] += std::popcount(w);
    }
  }

  struct EdgeSlots {
    size_t left, right;
  };
  std::vector<EdgeSlots> edge_slots;
  for (const JoinEdge& e : query.edges) {
    auto l = Slot(*entries[e.left], e.left_column);
    if (!l.ok()) return l.status();
    auto r = Slot(*entries[e.right], e.right_column);
    if (!r.ok()) return r.status();
    if (!Comparable(entries[e.left]->schema().column(*l).type,
                    entries[e.right]->schema().column(*r).type)) {
      return Status::InvalidArgument("join edge between incompatible columns");
    }
    edge_slots.push_back({*l, *r});
  }
  auto slot_on = [&](size_t e, size_t t) {
    return query.edges[e].left == t ? edge_slots[e].left : edge_slots[e].right;
  };
  auto view = [&](size_t t, Rid rid) { return entries[t]->table().View(rid); };

  // Intermediate result: flat tuples of n RIDs (unbound positions unused).
  std::vector<bool> bound(n, false);
  size_t start = 0;
  for (size_t t = 1; t < n; ++t) {
    if (counts[t] < counts[start]) start = t;
  }
  std::vector<Rid> tuples;
  for (Rid rid = 0; rid < entries[start]->table().num_rows(); ++rid) {
    if (!filters[start].empty() && !Test(filters[start], rid)) continue;
    tuples.resize(tuples.size() + n);
    tuples[tuples.size() - n + start] = rid;
  }
  bound[start] = true;

  for (size_t joined = 1; joined < n; ++joined) {
    // Next: the smallest filtered table adjacent to the bound set.
    size_t next = SIZE_MAX;
    for (const JoinEdge& e : query.edges) {
      for (size_t t : {e.left, e.right}) {
        if (!bound[t] && bound[e.Other(t)] && (next == SIZE_MAX || counts[t] < counts[next])) {
          next = t;
        }
      }
    }
    std::vector<size_t> edges;  // edges from `next` into the bound set
    for (const JoinEdge& e : query.edges) {
      if (e.Touches(next) && bound[e.Other(next)]) edges.push_back(e.edge_id);
    }
    const size_t key_edge = edges[0];
    const size_t key_from = query.edges[key_edge].Other(next);
    const size_t key_from_slot = slot_on(key_edge, key_from);
    const size_t next_slot = slot_on(key_edge, next);

    // Probe the whole-table hash and filter afterwards when the input is
    // small next to the filtered table; otherwise build a hash over the
    // filtered rows only.
    const size_t in = tuples.size() / n;
    const ColumnHash& whole = HashOf(*entries[next], next_slot);
    double fanout = static_cast<double>(entries[next]->table().num_rows()) /
                    std::max<size_t>(1, whole.group_of.size());
    const bool probe_whole = filters[next].empty() || in * (1.0 + fanout) <= counts[next];
    std::unique_ptr<ColumnHash> local;
    if (!probe_whole) {
      local = std::make_unique<ColumnHash>(entries[next]->table(), next_slot, &filters[next]);
    }
    const ColumnHash* hash = probe_whole ? &whole : local.get();
    const bool post_filter = probe_whole && !filters[next].empty();

    std::vector<Rid> out;
    for (size_t i = 0; i < in; ++i) {
      const Rid* tuple = &tuples[i * n];
      auto it = hash->group_of.find(JoinKeyOf(view(key_from, tuple[key_from]),
                                                        key_from_slot));
      if (it == hash->group_of.end()) continue;
      for (uint32_t j = hash->offsets[it->second]; j < hash->offsets[it->second + 1]; ++j) {
        Rid rid = hash->rids[j];
        if (post_filter && !Test(filters[next], rid)) continue;
        bool match = true;
        for (size_t k = 1; k < edges.size() && match; ++k) {
          size_t other = query.edges[edges[k]].Other(next);
          match = Compare(FromCell(view(next, rid), slot_on(edges[k], next)),
                          FromCell(view(other, tuple[other]), slot_on(edges[k], other))) == 0;
        }
        if (!match) continue;
        out.insert(out.end(), tuple, tuple + n);
        out[out.size() - n + next] = rid;
      }
    }
    tuples.swap(out);
    bound[next] = true;
  }

  std::vector<std::pair<size_t, size_t>> out_slots;
  for (const OutputColumn& c : query.output) {
    auto s = Slot(*entries[c.table], c.column);
    if (!s.ok()) return s.status();
    out_slots.emplace_back(c.table, *s);
  }
  ResultDigest digest;
  for (size_t i = 0; i < tuples.size(); i += n) {
    uint64_t h = kRowSeed;
    for (const auto& [t, s] : out_slots) h = CombineRow(h, HashCell(view(t, tuples[i + t]), s));
    digest.Add(Mix64(h));
  }
  return digest;
}

}  // namespace ajr::perfbench
