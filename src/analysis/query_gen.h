#ifndef XBENCH_ANALYSIS_QUERY_GEN_H_
#define XBENCH_ANALYSIS_QUERY_GEN_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/class_schemas.h"
#include "common/random.h"

namespace xbench::analysis {

/// One generated query plus the metadata the differential oracle needs to
/// decide which engines it can be compared across.
struct GeneratedQuery {
  /// XQuery text referencing the collection as `$input`.
  std::string text;
  /// True when evaluating the query per document and concatenating the
  /// results reproduces the collection-level answer as a value multiset
  /// (i.e. no collection-level aggregate). Gates the CLOB per-document
  /// comparison in the differential oracle.
  bool document_decomposable = true;
};

/// Grammar-driven, schema-aware XQuery generator. Every emitted query is
/// derived from the class DTD's element graph — paths only take edges the
/// DTD admits, attributes only appear on elements that declare them — so
/// the static analyzer accepts each query without error diagnostics and
/// the differential oracle exercises live evaluation paths instead of
/// drowning in provably-empty ones. Deterministic: the same (schema, seed)
/// pair yields the same query sequence.
class QueryGenerator {
 public:
  QueryGenerator(const ClassSchema& schema, uint64_t seed);

  /// Generates the next query. Guaranteed to parse and to analyze with no
  /// error-severity diagnostics against the schema context.
  GeneratedQuery Next();

 private:
  struct PathResult {
    std::string text;         // "$input//item/name"
    std::string result_type;  // final element type; empty for @attr/text()
  };

  /// Element path through the DTD graph: `$input//E(/child)*`, optionally
  /// ending in `/@attr` or `/text()` when `allow_leaf` is set.
  PathResult GenPath(bool allow_leaf);
  /// Predicate admitted by `context_type`: existence, value comparison,
  /// or positional.
  std::string GenPredicate(const std::string& context_type);
  std::string GenLiteral();
  std::string GenComparisonOp();
  /// `<open><name> <op> <literal>]` over one of `names`.
  std::string ValueComparison(const char* open,
                              const std::vector<std::string>& names);

  /// One template expansion (may not analyze clean — Next() retries).
  GeneratedQuery GenCandidate();

  const ClassSchema& schema_;
  Rng rng_;
  std::vector<std::string> reachable_;  // descendant closure of the roots
  std::map<std::string, std::vector<std::string>> children_;
  std::map<std::string, std::vector<std::string>> attrs_;
  std::map<std::string, bool> has_text_;
};

}  // namespace xbench::analysis

#endif  // XBENCH_ANALYSIS_QUERY_GEN_H_
