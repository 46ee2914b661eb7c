// Independent result checker for the end-to-end benchmark.
//
// ReferenceChecker evaluates a JoinQuery by hash joins over the catalog's
// heap tables. It interprets the Expr trees itself (leaf predicates become
// row bitmaps, AND/OR/NOT combine them) and builds its own hash tables on
// the join columns. It never calls BindPredicate, the planner, the indexes
// or either executor, so a fault in any of those shows as a mismatch
// between the program's output digest and the checker's.
//
// Both sides reduce a result to a ResultDigest: the row count plus a
// wrapping sum of per-row hashes of the projected values. The sum does not
// depend on emission order, and a dropped, duplicated or wrong row changes
// it.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimize/query.h"
#include "types/schema.h"

namespace ajr::perfbench {

/// Order-independent digest of a query's output multiset.
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t checksum = 0;  ///< wrapping sum of per-row hashes

  void Add(uint64_t row_hash) {
    ++rows;
    checksum += row_hash;
  }
  bool operator==(const ResultDigest&) const = default;
};

/// Hash of one projected output row, as the executors hand it to a sink.
uint64_t HashRow(const Row& row);

/// Evaluates queries apart from the program (see file comment).
///
/// Leaf bitmaps and per-column hash tables are cached across Evaluate()
/// calls, so a mix of queries over the same tables pays for each distinct
/// leaf predicate and join column once.
class ReferenceChecker {
 public:
  /// `catalog` must outlive the checker and stay unchanged.
  explicit ReferenceChecker(const Catalog* catalog);
  ~ReferenceChecker();

  StatusOr<ResultDigest> Evaluate(const JoinQuery& query);

 private:
  using Bitmap = std::vector<uint64_t>;

  /// Rows of one table grouped by one column's value (defined in the .cc).
  struct ColumnHash;

  StatusOr<Bitmap> EvalPredicate(const TableEntry& table, const Expr& expr);
  StatusOr<const Bitmap*> LeafBitmap(const TableEntry& table, const Expr& leaf);
  const ColumnHash& HashOf(const TableEntry& table, size_t column);

  const Catalog* catalog_;
  std::map<std::string, Bitmap> leaf_cache_;  ///< "table\x1fleaf text"
  std::map<std::pair<const TableEntry*, size_t>, std::unique_ptr<ColumnHash>>
      hash_cache_;
};

}  // namespace ajr::perfbench
