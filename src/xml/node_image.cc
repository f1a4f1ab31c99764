#include "xml/node_image.h"

#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "xml/parser.h"

namespace xbench::xml {
namespace {

constexpr uint8_t kElementRecord = 0;
constexpr uint8_t kTextRecord = 1;

void PutVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void PutBytes(std::string& out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out.append(bytes);
}

/// Writes the pre-order records while interning names; the header (which
/// needs the final node count and name table) is assembled afterwards.
class ImageEncoder {
 public:
  std::string Encode(const Node& root) {
    EncodeNode(root);
    std::string out;
    out.reserve(body_.size() + 16 * names_.size() + 16);
    out.push_back(static_cast<char>(kNodeImageVersion));
    PutVarint(out, nodes_);
    PutVarint(out, names_.size());
    for (std::string_view name : names_) PutBytes(out, name);
    out.append(body_);
    return out;
  }

 private:
  uint64_t NameId(const std::string& name) {
    auto [it, inserted] = ids_.try_emplace(name, names_.size());
    if (inserted) names_.push_back(name);
    return it->second;
  }

  void EncodeNode(const Node& node) {
    ++nodes_;
    if (node.is_text()) {
      body_.push_back(static_cast<char>(kTextRecord));
      PutBytes(body_, node.text());
      return;
    }
    body_.push_back(static_cast<char>(kElementRecord));
    PutVarint(body_, NameId(node.name()));
    PutVarint(body_, node.attributes().size());
    for (const Attribute& attr : node.attributes()) {
      PutVarint(body_, NameId(attr.name));
      PutBytes(body_, attr.value);
    }
    PutVarint(body_, node.children().size());
    for (const auto& child : node.children()) EncodeNode(*child);
  }

  // Views into the encoded tree's own strings, which outlive the encoder.
  std::unordered_map<std::string_view, uint64_t> ids_;
  std::vector<std::string_view> names_;
  std::string body_;
  uint64_t nodes_ = 0;
};

}  // namespace

/// Builds the DOM straight from an image: a friend of Node and Document so
/// it can allocate nodes, pre-size their vectors from the recorded counts
/// and stamp pre-order ids in the same pass. Each read reports failure
/// instead of throwing or asserting; the first failure's reason is kept.
class ImageDecoder {
 public:
  ImageDecoder(std::string_view image, std::vector<const Node*>* by_order)
      : begin_(image.data()),
        pos_(image.data()),
        end_(image.data() + image.size()),
        by_order_(by_order) {}

  Result<Document> Decode(std::string name) {
    Document doc;
    if (!DecodeDocument(doc)) {
      if (by_order_ != nullptr) by_order_->clear();
      return Status::Corruption("node image of '" + name + "': " + error_ +
                                " at byte " + std::to_string(pos_ - begin_));
    }
    doc.name_ = std::move(name);
    return doc;
  }

 private:
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  size_t Remaining() const { return static_cast<size_t>(end_ - pos_); }

  bool ReadVarint(uint64_t& value) {
    if (pos_ != end_ && static_cast<uint8_t>(*pos_) < 0x80) {
      value = static_cast<uint8_t>(*pos_++);
      return true;
    }
    value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ == end_) return false;
      const uint8_t byte = static_cast<uint8_t>(*pos_++);
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) return true;
    }
    return false;
  }

  /// A count of items that each take at least `min_bytes` more bytes.
  bool ReadCount(uint64_t& count, size_t min_bytes) {
    return ReadVarint(count) && count <= Remaining() / min_bytes;
  }

  bool ReadBytes(std::string_view& bytes) {
    uint64_t length = 0;
    if (!ReadVarint(length) || length > Remaining()) return false;
    bytes = std::string_view(pos_, static_cast<size_t>(length));
    pos_ += length;
    return true;
  }

  bool ReadName(const std::string*& name) {
    uint64_t id = 0;
    if (!ReadVarint(id) || id >= names_.size()) return false;
    name = &names_[static_cast<size_t>(id)];
    return true;
  }

  bool DecodeDocument(Document& doc) {
    if (pos_ == end_ || static_cast<uint8_t>(*pos_) != kNodeImageVersion) {
      return Fail("unknown format version");
    }
    ++pos_;
    // Every record takes at least two bytes (kind + one varint).
    if (!ReadCount(node_count_, 2) || node_count_ == 0 ||
        node_count_ >= std::numeric_limits<uint32_t>::max()) {
      return Fail("bad node count");
    }
    uint64_t name_count = 0;
    if (!ReadCount(name_count, 1)) return Fail("bad name count");
    names_.reserve(static_cast<size_t>(name_count));
    for (uint64_t i = 0; i < name_count; ++i) {
      std::string_view name;
      if (!ReadBytes(name)) return Fail("truncated name table");
      names_.emplace_back(name);
    }
    if (by_order_ != nullptr) {
      by_order_->clear();
      by_order_->reserve(static_cast<size_t>(node_count_) + 1);
      by_order_->push_back(nullptr);
    }
    if (pos_ == end_ || static_cast<uint8_t>(*pos_) != kElementRecord) {
      return Fail("root record is not an element");
    }
    if (!DecodeNode(doc.root_, nullptr, 0)) return false;
    if (pos_ != end_) return Fail("bytes after the root record");
    if (next_order_ - 1 != node_count_) return Fail("node count mismatch");
    return true;
  }

  /// Assigns the next pre-order id to a freshly allocated node.
  void Place(Node& node, Node* parent) {
    node.parent_ = parent;
    node.order_ = next_order_++;
    if (by_order_ != nullptr) by_order_->push_back(&node);
  }

  /// Decodes one record (and, for an element, its subtree) into `slot`.
  /// `depth` counts the enclosing elements.
  bool DecodeNode(std::unique_ptr<Node>& slot, Node* parent, int depth) {
    if (pos_ == end_) return Fail("truncated record");
    if (next_order_ > node_count_) return Fail("more records than nodes");
    const uint8_t kind = static_cast<uint8_t>(*pos_++);
    if (kind == kTextRecord) {
      std::string_view text;
      if (!ReadBytes(text)) return Fail("truncated text");
      slot.reset(new Node(NodeKind::kText));
      slot->text_.assign(text);
      Place(*slot, parent);
      return true;
    }
    if (kind != kElementRecord) return Fail("unknown record kind");
    if (depth >= kMaxElementDepth) return Fail("element nesting too deep");
    const std::string* name = nullptr;
    if (!ReadName(name)) return Fail("bad element name id");
    slot.reset(new Node(NodeKind::kElement));
    Node& node = *slot;
    node.name_ = *name;
    Place(node, parent);
    uint64_t attribute_count = 0;
    if (!ReadCount(attribute_count, 2)) return Fail("bad attribute count");
    node.attributes_.reserve(static_cast<size_t>(attribute_count));
    for (uint64_t i = 0; i < attribute_count; ++i) {
      const std::string* attr_name = nullptr;
      std::string_view value;
      if (!ReadName(attr_name)) return Fail("bad attribute name id");
      if (!ReadBytes(value)) return Fail("truncated attribute value");
      node.attributes_.push_back({*attr_name, std::string(value)});
    }
    uint64_t child_count = 0;
    if (!ReadCount(child_count, 2)) return Fail("bad child count");
    node.children_.resize(static_cast<size_t>(child_count));
    for (std::unique_ptr<Node>& child : node.children_) {
      if (!DecodeNode(child, &node, depth + 1)) return false;
    }
    return true;
  }

  const char* begin_;
  const char* pos_;
  const char* end_;
  std::vector<const Node*>* by_order_;
  std::vector<std::string> names_;
  uint64_t node_count_ = 0;
  uint32_t next_order_ = 1;
  const char* error_ = "";
};

std::string EncodeImage(const Node& root) {
  return ImageEncoder().Encode(root);
}

Result<Document> DecodeImage(std::string_view image, std::string name,
                             std::vector<const Node*>* by_order) {
  return ImageDecoder(image, by_order).Decode(std::move(name));
}

}  // namespace xbench::xml
