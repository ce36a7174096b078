#include "html/parser.h"

#include <algorithm>

#include "html/tokenizer.h"

namespace deepsurf {
namespace html {

bool IsVoidElement(std::string_view tag) {
  static constexpr std::string_view kVoid[] = {
      "area", "base", "br",    "col",   "embed", "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return std::find(std::begin(kVoid), std::end(kVoid), tag) != std::end(kVoid);
}

namespace {

/// Most elements open at once, the depth cap Chromium's and WebKit's
/// parsers use. The DOM walkers recurse once per level, so without a cap
/// one page of deeply nested tags would overflow the stack of whatever
/// process reads it.
constexpr size_t kMaxOpenElements = 512;

/// Returns the set of open tags that a new `tag` implicitly closes when it
/// is the innermost open element.
bool ImpliedClose(std::string_view open, std::string_view incoming) {
  if (open == "p") {
    static constexpr std::string_view kBlock[] = {
        "p",  "div", "table", "ul", "ol", "li", "form", "h1", "h2",
        "h3", "h4",  "h5",    "h6", "dl", "dd", "dt",   "section"};
    return std::find(std::begin(kBlock), std::end(kBlock), incoming) !=
           std::end(kBlock);
  }
  if (open == "li") return incoming == "li";
  if (open == "option") return incoming == "option" || incoming == "optgroup";
  if (open == "optgroup") return incoming == "optgroup";
  if (open == "tr") return incoming == "tr";
  if (open == "td" || open == "th") {
    return incoming == "td" || incoming == "th" || incoming == "tr";
  }
  if (open == "dd" || open == "dt") {
    return incoming == "dd" || incoming == "dt";
  }
  return false;
}

}  // namespace

/// The scanner's sink that builds the tree as tokens arrive; comments and
/// doctypes are not materialized.
class TreeBuilder final : public TokenSink {
 public:
  std::unique_ptr<Node> Build(std::string_view html) {
    std::unique_ptr<Node> root = Node::NewDocument(html.size());
    root_ = root.get();
    stack_.assign(1, root_);
    Scan(html, this);
    return root;
  }

  void StartTag(std::string_view name, const AttributeView* attributes,
                size_t count, bool self_closing) override {
    // Apply implied closes while the innermost element demands one.
    while (stack_.size() > 1 && ImpliedClose(stack_.back()->tag(), name)) {
      stack_.pop_back();
    }
    Node* el = root_->NewElement(name, attributes, count);
    stack_.back()->AppendChild(el);
    // At the depth cap the element stays in the tree but is not opened,
    // so what follows it lands in the innermost open element instead.
    if (!self_closing && !IsVoidElement(name) &&
        stack_.size() <= kMaxOpenElements) {
      stack_.push_back(el);
    }
  }

  void EndTag(std::string_view name) override {
    // Find the matching open element; drop the end tag when none exists.
    for (size_t i = stack_.size(); i > 1; --i) {
      if (stack_[i - 1]->tag() == name) {
        stack_.resize(i - 1);
        return;
      }
    }
  }

  void Text(std::string_view text) override {
    stack_.back()->AppendChild(root_->NewText(text));
  }

 private:
  Node* root_ = nullptr;
  std::vector<Node*> stack_;
};

std::unique_ptr<Node> Parse(std::string_view html) {
  return TreeBuilder().Build(html);
}

}  // namespace html
}  // namespace deepsurf
