#ifndef XBENCH_ENGINES_SECONDARY_INDEX_H_
#define XBENCH_ENGINES_SECONDARY_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "xml/node.h"

namespace xbench::engines {

/// Node-granular posting: which document (registry ordinal) and which
/// node inside it (pre-order number from Document::AssignOrder). Packed
/// into the storage::RecordId space as (ordinal << 32) | order so the
/// B+-tree value indexes can carry the same coordinates.
inline uint64_t PackNodeRid(size_t ordinal, uint32_t order) {
  return (static_cast<uint64_t>(ordinal) << 32) | order;
}
inline size_t RidOrdinal(uint64_t rid) { return static_cast<size_t>(rid >> 32); }
inline uint32_t RidOrder(uint64_t rid) {
  return static_cast<uint32_t>(rid & 0xffffffffu);
}

/// Structural index: qualified element path ("catalog/item/name") ->
/// postings, plus the per-collection statistics the cost model reads
/// (document count, element counts by tag, root tags). The native engine
/// maintains one unconditionally — it doubles as the statistics store —
/// and registers it in ListIndexes only when DDL names it.
///
/// Thread safety: none; the owner serializes access (the native engine
/// mutates it under the exclusive collection lock and reads it while
/// refreshing the planner catalog mirror).
class PathIndex {
 public:
  struct Posting {
    size_t ordinal = 0;
    uint32_t order = 0;
    /// Nodes in the posted element's subtree (element + descendants of
    /// all kinds) — lets structural probes pre-size result buffers.
    uint32_t subtree = 0;
  };

  /// Indexes every element of `root` under its qualified path. `root`
  /// must already have pre-order numbers assigned.
  void AddDocument(size_t ordinal, const xml::Node& root);

  /// Removes every posting of `ordinal`; `root` re-walks the same tree to
  /// decrement the per-tag statistics.
  void RemoveDocument(size_t ordinal, const xml::Node& root);

  /// Postings for one qualified path, document order within each
  /// document; nullptr when no element has that path.
  const std::vector<Posting>* Lookup(const std::string& path) const;

  uint64_t documents() const { return documents_; }
  uint64_t total_elements() const { return total_elements_; }
  uint64_t distinct_paths() const { return postings_.size(); }
  uint64_t entries() const { return total_elements_; }
  const std::map<std::string, uint64_t>& elements_by_name() const {
    return element_counts_;
  }
  /// Distinct root-element tags currently loaded.
  std::vector<std::string> root_names() const;
  /// Every posting, by qualified path.
  const std::map<std::string, std::vector<Posting>>& postings() const {
    return postings_;
  }

 private:
  std::map<std::string, std::vector<Posting>> postings_;
  std::map<std::string, uint64_t> element_counts_;
  std::map<std::string, uint64_t> root_counts_;
  uint64_t documents_ = 0;
  uint64_t total_elements_ = 0;
};

/// Inverted text index over element text, serving contains-word() probes.
///
/// Posting rule: an element E posts a word w iff w is a *direct* token of
/// E — w tokenizes out of TextContent(E) but out of no single element
/// child's TextContent. Tokens are maximal [A-Za-z0-9_] runs,
/// case-sensitive, matching common/strings.h ContainsWord boundaries.
/// The set-difference makes postings sparse while keeping lookups a
/// superset: any element whose TextContent word-contains w has a
/// descendant-or-self posting w (tokens that merge across child
/// boundaries, e.g. "foo"+"word" -> "fooword", post at the merge point).
/// Probe consumers re-check the original predicate on each candidate, so
/// the superset is harmless.
///
/// Thread safety: none; owner serializes (see PathIndex).
class TextIndex {
 public:
  /// When non-null, Lookup charges the clock like a B+-tree probe: one
  /// page read for the dictionary plus one per 128 postings scanned.
  explicit TextIndex(VirtualClock* clock = nullptr,
                     uint64_t page_read_micros = 40)
      : clock_(clock), page_read_micros_(page_read_micros) {}

  void AddDocument(size_t ordinal, const xml::Node& root);
  void RemoveDocument(size_t ordinal);

  /// Packed node rids of elements directly posting `word`, ascending.
  std::vector<uint64_t> Lookup(const std::string& word) const;

  uint64_t entries() const { return entries_; }
  uint64_t distinct_words() const { return postings_.size(); }
  /// Every posting, by word.
  const std::map<std::string, std::vector<uint64_t>>& postings() const {
    return postings_;
  }

 private:
  std::map<std::string, std::vector<uint64_t>> postings_;
  uint64_t entries_ = 0;
  VirtualClock* clock_;
  uint64_t page_read_micros_;
};

/// Value postings of one Table-3 style path over one document tree:
/// (value, pre-order number of the posted node's *anchor element*).
/// For "item/@id" the anchor is the `item` element carrying the
/// attribute; for a child-value path "hw" the anchor is the `hw` element
/// itself (probes map it to its parent). When `single_valued` is
/// non-null it is AND-ed with "no parent gained two postings from this
/// tree" — the precondition for decomposing range probes over the index.
std::vector<std::pair<std::string, uint32_t>> ExtractIndexPostings(
    const xml::Node& root, const std::string& path,
    bool* single_valued = nullptr);

}  // namespace xbench::engines

#endif  // XBENCH_ENGINES_SECONDARY_INDEX_H_
