// Copyright 2026 The deepsurf Authors.
//
// A small DOM: element/text nodes with parent links and the traversal
// helpers the form extractor, link extractor and wrapper-induction code
// need (tag paths, descendant queries, inner text).

#ifndef DEEPSURF_HTML_DOM_H_
#define DEEPSURF_HTML_DOM_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "html/tokenizer.h"

namespace deepsurf {
namespace html {

/// DOM node. A node is either an element (tag + attributes + children) or
/// a text node (`tag` empty, `text` set). Every node of a document, with
/// its strings and attributes, lives in an arena owned by the root that
/// Parse() returns: a `const Node*` or a view from any accessor is valid
/// as long as that root. Children are sibling links, in document order.
class Node {
 public:
  /// Iterates one node's children, yielding `const Node*`.
  class ChildIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = const Node*;
    using difference_type = std::ptrdiff_t;
    using pointer = const Node* const*;
    using reference = const Node*;

    explicit ChildIterator(const Node* node) : node_(node) {}
    const Node* operator*() const { return node_; }
    ChildIterator& operator++() {
      node_ = node_->next_sibling_;
      return *this;
    }
    bool operator==(const ChildIterator& o) const { return node_ == o.node_; }
    bool operator!=(const ChildIterator& o) const { return node_ != o.node_; }

   private:
    const Node* node_;
  };

  /// A node's children, for range-for.
  class ChildRange {
   public:
    explicit ChildRange(const Node* first) : first_(first) {}
    ChildIterator begin() const { return ChildIterator(first_); }
    ChildIterator end() const { return ChildIterator(nullptr); }
    bool empty() const { return first_ == nullptr; }

   private:
    const Node* first_;
  };

  /// An element's attributes in source order.
  class AttributeRange {
   public:
    AttributeRange(const AttributeView* begin, size_t size)
        : begin_(begin), size_(size) {}
    const AttributeView* begin() const { return begin_; }
    const AttributeView* end() const { return begin_ + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    const AttributeView* begin_;
    size_t size_;
  };

  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  bool is_element() const { return !tag_.empty(); }
  bool is_text() const { return tag_.empty(); }

  /// Lowercased tag name; "" for text nodes.
  std::string_view tag() const { return tag_; }
  /// Entity-decoded character data of a text node; "" for elements.
  std::string_view text() const { return text_; }
  /// Names lowercased, values entity-decoded.
  AttributeRange attributes() const { return {attrs_, num_attrs_}; }
  const Node* parent() const { return parent_; }
  ChildRange children() const { return ChildRange(first_child_); }

  /// Pre-order position of this node in its document; the root is 0.
  size_t position() const { return position_; }

  /// Number of nodes (elements and text) in this subtree, self included.
  /// The subtree's positions are [position(), position() + SubtreeSize()).
  size_t SubtreeSize() const;

  /// Value of attribute `name` (lowercase), or "" when absent.
  std::string_view GetAttr(std::string_view name) const;

  /// True iff the attribute is present (with or without a value).
  bool HasAttr(std::string_view name) const;

  /// All descendant elements (pre-order) with the given tag; pass "" for
  /// every element.
  std::vector<const Node*> Descendants(std::string_view tag) const;

  /// First descendant element with the given tag, or nullptr.
  const Node* FirstDescendant(std::string_view tag) const;

  /// Concatenated text of all descendant text nodes, with whitespace runs
  /// collapsed; skips <script> and <style> subtrees. Equivalently: a text
  /// node's collapsed text, and for an element its children's non-empty
  /// inner texts joined by one space.
  std::string InnerText() const;

  /// '/'-joined tag path from the root to this node, e.g.
  /// "html/body/div/table/tr". Text nodes contribute "#text".
  std::string TagPath() const;

  /// Nearest ancestor (excluding self) with tag `tag`, or nullptr.
  const Node* Ancestor(std::string_view tag) const;

  /// Number of element nodes in this subtree including self (0 for text).
  size_t ElementCount() const;

 private:
  friend class TreeBuilder;  // html/parser.cc
  class Arena;

  Node();

  /// A "#document" root whose arena expects a page of `source_bytes`.
  static std::unique_ptr<Node> NewDocument(size_t source_bytes);
  /// Allocates an unlinked element / text node in this root's arena,
  /// copying its strings there.
  Node* NewElement(std::string_view tag, const AttributeView* attributes,
                   size_t count);
  Node* NewText(std::string_view text);
  /// Links `child` as the last child.
  void AppendChild(Node* child);

  std::string_view tag_;
  std::string_view text_;
  const AttributeView* attrs_ = nullptr;
  size_t num_attrs_ = 0;
  size_t position_ = 0;
  Node* parent_ = nullptr;
  Node* first_child_ = nullptr;
  Node* last_child_ = nullptr;
  Node* next_sibling_ = nullptr;
  std::unique_ptr<Arena> arena_;  // the root's only
};

}  // namespace html
}  // namespace deepsurf

#endif  // DEEPSURF_HTML_DOM_H_
