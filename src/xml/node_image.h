#ifndef XBENCH_XML_NODE_IMAGE_H_
#define XBENCH_XML_NODE_IMAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace xbench::xml {

/// Compact pre-order node image: the native store's persistent form of one
/// document (DESIGN.md §4). Every integer is an unsigned LEB128 varint:
///
///   header   version byte (kNodeImageVersion), node count, name count,
///            then each name as (length, bytes)
///   records  one per node, in pre-order:
///            element  0x00, name id, attribute count,
///                     (name id, value length, value bytes) per attribute,
///                     child count, then the children's records
///            text     0x01, length, bytes
///
/// Tag and attribute names share one table per document, so each image is
/// self-contained: deleting a document touches no other record.
inline constexpr uint8_t kNodeImageVersion = 1;

/// Encodes the tree rooted at `root`. Trees the parser builds always
/// decode; a hand-built tree nested deeper than kMaxElementDepth encodes
/// but is rejected by DecodeImage.
std::string EncodeImage(const Node& root);

/// Rebuilds the document an image encodes, assigning pre-order ids from 1
/// as it goes (no AssignOrder walk). When `by_order` is non-null it is
/// replaced by the order -> node table of the result (slot 0 unused).
/// Every read, name id and count is checked against the bytes left, and
/// nesting is capped at kMaxElementDepth: a truncated or malformed image
/// returns kCorruption, never crashes.
Result<Document> DecodeImage(std::string_view image, std::string name,
                             std::vector<const Node*>* by_order = nullptr);

}  // namespace xbench::xml

#endif  // XBENCH_XML_NODE_IMAGE_H_
