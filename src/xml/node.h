#ifndef XBENCH_XML_NODE_H_
#define XBENCH_XML_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xbench::xml {

/// Node kinds of the simplified XML data model. Attributes are stored on
/// elements (they are not children and do not take part in document order,
/// matching the XPath data model's treatment for our purposes).
enum class NodeKind : uint8_t {
  kElement,
  kText,
};

struct Attribute {
  std::string name;
  std::string value;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// A node in an XML document tree.
///
/// Ownership: a node owns its children (`unique_ptr`); `parent` is a
/// non-owning back pointer. Document order ids are assigned by
/// Document::AssignOrder() (or by DecodeImage, xml/node_image.h, as it
/// builds the tree) and are used by the query engine for sorting node
/// sequences into document order.
class Node {
 public:
  static std::unique_ptr<Node> Element(std::string name);
  static std::unique_ptr<Node> Text(std::string content);

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const { return kind_ == NodeKind::kText; }

  /// Element tag name; empty for text nodes.
  const std::string& name() const { return name_; }
  /// Text content; empty for elements (use TextContent() for subtrees).
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  Node* parent() const { return parent_; }
  uint32_t order() const { return order_; }
  void set_order(uint32_t order) { order_ = order; }

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Appends a child, taking ownership; returns a borrowed pointer to it.
  Node* AddChild(std::unique_ptr<Node> child);
  /// Convenience: appends `<name>` and returns it.
  Node* AddElement(std::string name);
  /// Convenience: appends a text node (even if empty? no — skips empty).
  void AddText(std::string content);
  /// Convenience: appends `<name>text</name>`.
  Node* AddSimple(std::string name, std::string content);

  void SetAttribute(std::string name, std::string value);
  /// Returns nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// First child element with the given tag, or nullptr.
  const Node* FirstChild(std::string_view name) const;
  Node* FirstChild(std::string_view name);
  /// All child elements with the given tag, in document order.
  std::vector<const Node*> Children(std::string_view name) const;
  /// All child elements regardless of tag.
  std::vector<const Node*> ChildElements() const;

  /// Concatenation of all descendant text, in document order (the XPath
  /// string value of an element).
  std::string TextContent() const;

  /// Number of nodes in this subtree (elements + text), including self.
  size_t SubtreeSize() const;

  /// Deep copy; the copy has no parent and order ids of 0.
  std::unique_ptr<Node> Clone() const;

  /// Structural equality: same kind, name/text, attributes (ordered) and
  /// recursively equal children. Order ids are ignored.
  bool StructurallyEquals(const Node& other) const;

  /// Pre-order traversal over the subtree including self.
  void Visit(const std::function<void(const Node&)>& fn) const;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

 private:
  // Builds trees straight from a stored node image (xml/node_image.cc).
  friend class ImageDecoder;

  explicit Node(NodeKind kind) : kind_(kind) {}

  NodeKind kind_;
  uint32_t order_ = 0;
  std::string name_;
  std::string text_;
  Node* parent_ = nullptr;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

/// An XML document: a name (file name in the benchmark collections) plus a
/// single root element.
class Document {
 public:
  Document() = default;
  Document(std::string name, std::unique_ptr<Node> root)
      : name_(std::move(name)), root_(std::move(root)) {
    AssignOrder();
  }

  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const Node* root() const { return root_.get(); }
  Node* root() { return root_.get(); }
  void set_root(std::unique_ptr<Node> root) {
    root_ = std::move(root);
    AssignOrder();
  }

  /// (Re)assigns document-order ids: pre-order, starting at 1.
  void AssignOrder();

  /// Total node count (elements + text nodes).
  size_t NodeCount() const { return root_ ? root_->SubtreeSize() : 0; }

  Document Clone() const;

 private:
  // Assembles a decoded tree whose order ids are already assigned.
  friend class ImageDecoder;

  std::string name_;
  std::unique_ptr<Node> root_;
};

}  // namespace xbench::xml

#endif  // XBENCH_XML_NODE_H_
