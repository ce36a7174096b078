#include "html/dom.h"

#include <algorithm>
#include <cstring>

namespace deepsurf {
namespace html {

/// Chunked storage for one document's nodes, attributes and strings.
/// Chunks never move, so pointers and views into them stay valid until
/// the root is destroyed.
class Node::Arena {
 public:
  template <typename T>
  class Pool {
   public:
    explicit Pool(size_t first_chunk)
        : chunk_size_(std::max<size_t>(first_chunk, 1)) {}

    /// `count` contiguous default-constructed elements.
    T* Take(size_t count) {
      if (count > left_) {
        chunk_size_ = std::max(chunk_size_, count);
        chunks_.push_back(std::unique_ptr<T[]>(new T[chunk_size_]));
        next_ = chunks_.back().get();
        left_ = chunk_size_;
        chunk_size_ *= 2;
      }
      T* out = next_;
      next_ += count;
      left_ -= count;
      return out;
    }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    T* next_ = nullptr;
    size_t left_ = 0;
    size_t chunk_size_;
  };

  /// A page's stored strings are disjoint spans of it, never lengthened,
  /// so one chunk of `source_bytes` holds them all.
  explicit Arena(size_t source_bytes)
      : chars(source_bytes), nodes(64), attributes(32) {}

  std::string_view Store(std::string_view s) {
    if (s.empty()) return {};
    char* out = chars.Take(s.size());
    std::memcpy(out, s.data(), s.size());
    return std::string_view(out, s.size());
  }

  Pool<char> chars;
  Pool<Node> nodes;
  Pool<AttributeView> attributes;
  size_t next_position = 1;  // the root is 0
};

Node::Node() = default;
Node::~Node() = default;

std::unique_ptr<Node> Node::NewDocument(size_t source_bytes) {
  std::unique_ptr<Node> root(new Node());
  root->tag_ = "#document";
  root->arena_ = std::make_unique<Arena>(source_bytes);
  return root;
}

Node* Node::NewElement(std::string_view tag, const AttributeView* attributes,
                       size_t count) {
  Node* n = arena_->nodes.Take(1);
  n->position_ = arena_->next_position++;
  n->tag_ = arena_->Store(tag);
  if (count > 0) {
    AttributeView* attrs = arena_->attributes.Take(count);
    for (size_t i = 0; i < count; ++i) {
      attrs[i].name = arena_->Store(attributes[i].name);
      attrs[i].value = arena_->Store(attributes[i].value);
      attrs[i].has_value = attributes[i].has_value;
    }
    n->attrs_ = attrs;
    n->num_attrs_ = count;
  }
  return n;
}

Node* Node::NewText(std::string_view text) {
  Node* n = arena_->nodes.Take(1);
  n->position_ = arena_->next_position++;
  n->text_ = arena_->Store(text);
  return n;
}

void Node::AppendChild(Node* child) {
  child->parent_ = this;
  if (last_child_ == nullptr) {
    first_child_ = child;
  } else {
    last_child_->next_sibling_ = child;
  }
  last_child_ = child;
}

size_t Node::SubtreeSize() const {
  const Node* last = this;
  while (last->last_child_ != nullptr) last = last->last_child_;
  return last->position_ - position_ + 1;
}

std::string_view Node::GetAttr(std::string_view name) const {
  for (const auto& a : attributes()) {
    if (a.name == name) return a.value;
  }
  return {};
}

bool Node::HasAttr(std::string_view name) const {
  for (const auto& a : attributes()) {
    if (a.name == name) return true;
  }
  return false;
}

namespace {
void CollectDescendants(const Node* node, std::string_view tag,
                        std::vector<const Node*>* out) {
  for (const Node* child : node->children()) {
    if (child->is_element()) {
      if (tag.empty() || child->tag() == tag) out->push_back(child);
      CollectDescendants(child, tag, out);
    }
  }
}

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Appends the node's text with whitespace runs collapsed to one space;
/// `in_space` is true after whitespace (or at the start), so a run that
/// spans text nodes still yields one space.
void AppendCollapsedText(const Node* node, std::string* out, bool* in_space) {
  if (node->is_text()) {
    for (char c : node->text()) {
      if (IsSpace(c)) {
        if (!*in_space) out->push_back(' ');
        *in_space = true;
      } else {
        out->push_back(c);
        *in_space = false;
      }
    }
    // Each text node ends a word.
    if (!*in_space) out->push_back(' ');
    *in_space = true;
    return;
  }
  if (node->tag() == "script" || node->tag() == "style") return;
  for (const Node* child : node->children()) {
    AppendCollapsedText(child, out, in_space);
  }
}
}  // namespace

std::vector<const Node*> Node::Descendants(std::string_view tag) const {
  std::vector<const Node*> out;
  CollectDescendants(this, tag, &out);
  return out;
}

const Node* Node::FirstDescendant(std::string_view tag) const {
  for (const Node* child : children()) {
    if (child->is_element()) {
      if (tag.empty() || child->tag() == tag) return child;
      if (const Node* found = child->FirstDescendant(tag)) return found;
    }
  }
  return nullptr;
}

std::string Node::InnerText() const {
  std::string out;
  bool in_space = true;  // drop leading space
  AppendCollapsedText(this, &out, &in_space);
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string Node::TagPath() const {
  std::vector<std::string_view> parts;
  for (const Node* n = this; n != nullptr; n = n->parent_) {
    parts.push_back(n->is_element() ? n->tag_ : std::string_view("#text"));
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out.push_back('/');
    out.append(*it);
  }
  return out;
}

const Node* Node::Ancestor(std::string_view tag) const {
  for (const Node* n = parent_; n != nullptr; n = n->parent_) {
    if (n->is_element() && n->tag() == tag) return n;
  }
  return nullptr;
}

size_t Node::ElementCount() const {
  if (is_text()) return 0;
  size_t count = 1;
  for (const Node* child : children()) count += child->ElementCount();
  return count;
}

}  // namespace html
}  // namespace deepsurf
