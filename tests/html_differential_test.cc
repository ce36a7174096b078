// Differential test of the one-pass scanner, the node arena and the
// extractors' text memo against a reference: the previous implementation
// (a token vector, a unique_ptr DOM, extractors that rebuild each node's
// text on demand), kept verbatim except for the two tokenizer rules
// marked "RULE CHANGE". Every node's canonical dump, InnerText and
// TagPath, every token, and the results of ExtractRecords,
// InducedWrapper::Apply, ExtractForms, ExtractTables and ExtractLinks
// must be identical, over synthweb pages of every domain, seeded
// mutations of them, every truncation of a few pages, and hand-written
// edge cases.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/form_model.h"
#include "extract/record_extractor.h"
#include "html/forms.h"
#include "html/parser.h"
#include "html/text.h"
#include "html/tokenizer.h"
#include "synthweb/domain.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"

namespace deepsurf {
namespace {
namespace reference {

using html::Attribute;
using html::Token;
using html::TokenKind;

// --- Tokenizer ------------------------------------------------------------

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
         c == ':';
}

bool IsRawTextElement(std::string_view name) {
  return name == "script" || name == "style" || name == "textarea" ||
         name == "title";
}

struct NamedEntity {
  std::string_view name;
  std::string_view expansion;
};

constexpr NamedEntity kEntities[] = {
    {"amp", "&"},   {"lt", "<"},    {"gt", ">"},   {"quot", "\""},
    {"apos", "'"},  {"nbsp", " "},  {"copy", "(c)"}, {"reg", "(r)"},
    {"mdash", "-"}, {"ndash", "-"}, {"hellip", "..."},
};

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back(s[i++]);
      continue;
    }
    std::string_view body = s.substr(i + 1, semi - i - 1);
    bool decoded = false;
    if (!body.empty() && body[0] == '#') {
      long code = -1;
      if (body.size() > 1 && (body[1] == 'x' || body[1] == 'X')) {
        code = std::strtol(std::string(body.substr(2)).c_str(), nullptr, 16);
      } else {
        code = std::strtol(std::string(body.substr(1)).c_str(), nullptr, 10);
      }
      if (code > 0) {
        out.push_back(code <= 0x7f ? static_cast<char>(code) : '?');
        decoded = true;
      }
    } else {
      for (const auto& e : kEntities) {
        if (body == e.name) {
          out.append(e.expansion);
          decoded = true;
          break;
        }
      }
    }
    if (decoded) {
      i = semi + 1;
    } else {
      out.push_back(s[i++]);
    }
  }
  return out;
}

// RULE CHANGE (raw-text close tags match regardless of case): the first
// "</" + name at or after `from`, name compared ASCII-case-insensitively.
size_t FindCloseIgnoringCase(std::string_view s, const std::string& close,
                             size_t from) {
  for (size_t i = from; i + close.size() <= s.size(); ++i) {
    bool match = true;
    for (size_t k = 0; k < close.size() && match; ++k) {
      match = std::tolower(static_cast<unsigned char>(s[i + k])) == close[k];
    }
    if (match) return i;
  }
  return std::string_view::npos;
}

class Scanner {
 public:
  explicit Scanner(std::string_view html) : s_(html) {}

  std::vector<Token> Run() {
    while (pos_ < s_.size()) {
      if (s_[pos_] == '<') {
        reached_end_ = false;
        if (!TryMarkup()) {
          if (reached_end_) {
            // RULE CHANGE (end of page): a construct that failed because
            // it reached the end turns the rest of the page into text.
            text_.append(s_.substr(pos_));
            pos_ = s_.size();
          } else {
            text_.push_back(s_[pos_++]);
          }
        }
      } else {
        text_.push_back(s_[pos_++]);
      }
    }
    FlushText();
    return std::move(tokens_);
  }

 private:
  void FlushText() {
    if (text_.empty()) return;
    Token t;
    t.kind = TokenKind::kText;
    t.text = DecodeEntities(text_);
    tokens_.push_back(std::move(t));
    text_.clear();
  }

  bool ReachedEnd() {
    reached_end_ = true;  // RULE CHANGE (end of page)
    return false;
  }

  bool TryMarkup() {
    if (pos_ + 1 >= s_.size()) return ReachedEnd();
    char next = s_[pos_ + 1];
    if (next == '!') return ConsumeBangConstruct();
    if (next == '/') return ConsumeEndTag();
    if (std::isalpha(static_cast<unsigned char>(next))) {
      return ConsumeStartTag();
    }
    return false;
  }

  bool ConsumeBangConstruct() {
    if (s_.compare(pos_, 4, "<!--") == 0) {
      size_t end = s_.find("-->", pos_ + 4);
      FlushText();
      Token t;
      t.kind = TokenKind::kComment;
      if (end == std::string_view::npos) {
        t.text = std::string(s_.substr(pos_ + 4));
        pos_ = s_.size();
      } else {
        t.text = std::string(s_.substr(pos_ + 4, end - pos_ - 4));
        pos_ = end + 3;
      }
      tokens_.push_back(std::move(t));
      return true;
    }
    size_t end = s_.find('>', pos_ + 2);
    if (end == std::string_view::npos) return ReachedEnd();
    FlushText();
    Token t;
    t.kind = TokenKind::kDoctype;
    t.text = std::string(s_.substr(pos_ + 2, end - pos_ - 2));
    pos_ = end + 1;
    tokens_.push_back(std::move(t));
    return true;
  }

  bool ConsumeEndTag() {
    size_t p = pos_ + 2;
    std::string name;
    while (p < s_.size() && IsNameChar(s_[p])) {
      name.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(s_[p]))));
      ++p;
    }
    if (name.empty()) return false;
    while (p < s_.size() && s_[p] != '>') ++p;
    if (p >= s_.size()) return ReachedEnd();
    FlushText();
    Token t;
    t.kind = TokenKind::kEndTag;
    t.name = std::move(name);
    tokens_.push_back(std::move(t));
    pos_ = p + 1;
    return true;
  }

  bool ConsumeStartTag() {
    size_t p = pos_ + 1;
    std::string name;
    while (p < s_.size() && IsNameChar(s_[p])) {
      name.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(s_[p]))));
      ++p;
    }
    Token t;
    t.kind = TokenKind::kStartTag;
    t.name = name;
    while (p < s_.size()) {
      while (p < s_.size() && IsSpace(s_[p])) ++p;
      if (p >= s_.size()) return ReachedEnd();
      if (s_[p] == '>') {
        ++p;
        break;
      }
      if (s_[p] == '/' && p + 1 < s_.size() && s_[p + 1] == '>') {
        t.self_closing = true;
        p += 2;
        break;
      }
      Attribute attr;
      while (p < s_.size() && s_[p] != '=' && s_[p] != '>' && s_[p] != '/' &&
             !IsSpace(s_[p])) {
        attr.name.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(s_[p]))));
        ++p;
      }
      if (attr.name.empty()) {
        ++p;
        continue;
      }
      while (p < s_.size() && IsSpace(s_[p])) ++p;
      if (p < s_.size() && s_[p] == '=') {
        ++p;
        while (p < s_.size() && IsSpace(s_[p])) ++p;
        std::string raw;
        if (p < s_.size() && (s_[p] == '"' || s_[p] == '\'')) {
          char quote = s_[p++];
          while (p < s_.size() && s_[p] != quote) raw.push_back(s_[p++]);
          if (p < s_.size()) ++p;
        } else {
          while (p < s_.size() && !IsSpace(s_[p]) && s_[p] != '>') {
            raw.push_back(s_[p++]);
          }
        }
        attr.value = DecodeEntities(raw);
        attr.has_value = true;
      }
      t.attributes.push_back(std::move(attr));
    }
    FlushText();
    pos_ = p;
    bool raw_text = IsRawTextElement(name) && !t.self_closing;
    tokens_.push_back(std::move(t));
    if (raw_text) ConsumeRawText(name);
    return true;
  }

  void ConsumeRawText(const std::string& name) {
    std::string close = "</" + name;
    size_t end = pos_;
    while (true) {
      end = FindCloseIgnoringCase(s_, close, end);  // RULE CHANGE (case)
      if (end == std::string_view::npos) {
        end = s_.size();
        break;
      }
      size_t after = end + close.size();
      if (after < s_.size() && (s_[after] == '>' || IsSpace(s_[after]))) {
        break;
      }
      ++end;
    }
    if (end > pos_) {
      Token t;
      t.kind = TokenKind::kText;
      std::string_view body = s_.substr(pos_, end - pos_);
      t.text = (name == "textarea" || name == "title")
                   ? DecodeEntities(body)
                   : std::string(body);
      tokens_.push_back(std::move(t));
    }
    if (end >= s_.size()) {
      pos_ = s_.size();
      return;
    }
    size_t gt = s_.find('>', end);
    Token t;
    t.kind = TokenKind::kEndTag;
    t.name = name;
    tokens_.push_back(std::move(t));
    pos_ = gt == std::string_view::npos ? s_.size() : gt + 1;
  }

  std::string_view s_;
  size_t pos_ = 0;
  bool reached_end_ = false;
  std::string text_;
  std::vector<Token> tokens_;
};

std::vector<Token> Tokenize(std::string_view html) {
  return Scanner(html).Run();
}

// --- DOM --------------------------------------------------------------------

class Node {
 public:
  static std::unique_ptr<Node> Element(std::string tag,
                                       std::vector<Attribute> attrs) {
    auto n = std::unique_ptr<Node>(new Node());
    n->tag_ = std::move(tag);
    n->attrs_ = std::move(attrs);
    return n;
  }

  static std::unique_ptr<Node> Text(std::string text) {
    auto n = std::unique_ptr<Node>(new Node());
    n->text_ = std::move(text);
    return n;
  }

  bool is_element() const { return !tag_.empty(); }
  bool is_text() const { return tag_.empty(); }
  const std::string& tag() const { return tag_; }
  const std::string& text() const { return text_; }
  const std::vector<Attribute>& attributes() const { return attrs_; }
  Node* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }

  Node* AppendChild(std::unique_ptr<Node> child) {
    child->parent_ = this;
    children_.push_back(std::move(child));
    return children_.back().get();
  }

  std::string GetAttr(std::string_view name) const {
    for (const auto& a : attrs_) {
      if (a.name == name) return a.value;
    }
    return "";
  }

  bool HasAttr(std::string_view name) const {
    for (const auto& a : attrs_) {
      if (a.name == name) return true;
    }
    return false;
  }

  std::vector<const Node*> Descendants(std::string_view tag) const {
    std::vector<const Node*> out;
    CollectDescendants(this, tag, &out);
    return out;
  }

  std::string InnerText() const {
    std::string raw;
    CollectText(this, &raw);
    return CollapseWhitespace(raw);
  }

  std::string TagPath() const {
    std::vector<std::string_view> parts;
    const Node* n = this;
    while (n != nullptr) {
      parts.push_back(n->is_element() ? std::string_view(n->tag_)
                                      : std::string_view("#text"));
      n = n->parent_;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!out.empty()) out.push_back('/');
      out.append(*it);
    }
    return out;
  }

  const Node* Ancestor(std::string_view tag) const {
    for (const Node* n = parent_; n != nullptr; n = n->parent_) {
      if (n->is_element() && n->tag() == tag) return n;
    }
    return nullptr;
  }

 private:
  Node() = default;

  static void CollectDescendants(const Node* node, std::string_view tag,
                                 std::vector<const Node*>* out) {
    for (const auto& child : node->children()) {
      if (child->is_element()) {
        if (tag.empty() || child->tag() == tag) out->push_back(child.get());
        CollectDescendants(child.get(), tag, out);
      }
    }
  }

  static void CollectText(const Node* node, std::string* out) {
    if (node->is_element() &&
        (node->tag() == "script" || node->tag() == "style")) {
      return;
    }
    if (node->is_text()) {
      out->append(node->text());
      out->push_back(' ');
      return;
    }
    for (const auto& child : node->children()) {
      CollectText(child.get(), out);
    }
  }

  static std::string CollapseWhitespace(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    bool in_space = true;
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out.push_back(' ');
        in_space = true;
      } else {
        out.push_back(c);
        in_space = false;
      }
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  }

  std::string tag_;
  std::string text_;
  std::vector<Attribute> attrs_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

// --- Tree builder -----------------------------------------------------------

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

std::unique_ptr<Node> Parse(std::string_view htmlsrc) {
  std::unique_ptr<Node> root = Node::Element("#document", {});
  std::vector<Node*> stack{root.get()};
  for (auto& tok : Tokenize(htmlsrc)) {
    switch (tok.kind) {
      case TokenKind::kStartTag: {
        while (stack.size() > 1 && ImpliedClose(stack.back()->tag(), tok.name)) {
          stack.pop_back();
        }
        Node* el = stack.back()->AppendChild(
            Node::Element(std::move(tok.name), std::move(tok.attributes)));
        if (!tok.self_closing && !html::IsVoidElement(el->tag())) {
          stack.push_back(el);
        }
        break;
      }
      case TokenKind::kEndTag:
        for (size_t i = stack.size(); i > 1; --i) {
          if (stack[i - 1]->tag() == tok.name) {
            stack.resize(i - 1);
            break;
          }
        }
        break;
      case TokenKind::kText:
        if (!tok.text.empty()) {
          stack.back()->AppendChild(Node::Text(std::move(tok.text)));
        }
        break;
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;
    }
  }
  return root;
}

// --- Text, links, tables ----------------------------------------------------

std::vector<html::Link> ExtractLinks(const Node& root) {
  std::vector<html::Link> out;
  for (const Node* a : root.Descendants("a")) {
    std::string href = a->GetAttr("href");
    if (href.empty()) continue;
    out.push_back(html::Link{std::move(href), a->InnerText()});
  }
  return out;
}

bool LooksLikeLabel(const std::string& cell) {
  if (cell.empty() || cell.size() > 30) return false;
  bool has_alpha = false;
  for (char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) return false;
    if (std::isalpha(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

std::vector<html::ExtractedTable> ExtractTables(const Node& root) {
  std::vector<html::ExtractedTable> out;
  for (const Node* table : root.Descendants("table")) {
    std::vector<std::vector<std::string>> rows;
    std::vector<bool> row_is_th;
    for (const Node* tr : table->Descendants("tr")) {
      if (tr->Ancestor("table") != table) continue;
      std::vector<std::string> cells;
      bool all_th = true;
      bool any_cell = false;
      for (const auto& child_owner : tr->children()) {
        const Node* cell = child_owner.get();
        if (!cell->is_element()) continue;
        if (cell->tag() != "td" && cell->tag() != "th") continue;
        any_cell = true;
        if (cell->tag() != "th") all_th = false;
        cells.push_back(cell->InnerText());
      }
      if (!any_cell) continue;
      rows.push_back(std::move(cells));
      row_is_th.push_back(all_th);
    }
    if (rows.size() < 2) continue;
    size_t width = rows[0].size();
    if (width < 2) continue;
    size_t consistent = 0;
    for (const auto& r : rows) {
      if (r.size() == width) ++consistent;
    }
    if (consistent * 5 < rows.size() * 4) continue;

    html::ExtractedTable t;
    if (row_is_th[0]) {
      t.header = rows[0];
      t.header_was_th = true;
      rows.erase(rows.begin());
    } else {
      bool labelish = true;
      for (const auto& cell : rows[0]) {
        if (!LooksLikeLabel(cell)) {
          labelish = false;
          break;
        }
      }
      if (labelish) {
        t.header = rows[0];
        rows.erase(rows.begin());
      } else {
        for (size_t i = 0; i < width; ++i) {
          t.header.push_back(strings::Format("col%zu", i));
        }
      }
    }
    if (rows.empty()) continue;
    for (auto& r : rows) {
      r.resize(width);
      t.rows.push_back(std::move(r));
    }
    out.push_back(std::move(t));
  }
  return out;
}

// --- Forms ------------------------------------------------------------------

using html::FieldKind;
using html::FieldOption;
using html::Form;
using html::FormField;

FieldKind ClassifyInput(const Node& input) {
  std::string type = strings::ToLower(input.GetAttr("type"));
  if (type.empty() || type == "text" || type == "search") {
    return FieldKind::kText;
  }
  if (type == "hidden") return FieldKind::kHidden;
  if (type == "checkbox") return FieldKind::kCheckbox;
  if (type == "radio") return FieldKind::kRadio;
  if (type == "submit" || type == "button") return FieldKind::kSubmit;
  if (type == "password") return FieldKind::kPassword;
  return FieldKind::kOther;
}

std::map<std::string, std::string> CollectForLabels(const Node& root) {
  std::map<std::string, std::string> out;
  for (const Node* label : root.Descendants("label")) {
    std::string target = label->GetAttr("for");
    if (!target.empty()) out[target] = label->InnerText();
  }
  return out;
}

std::string PrecedingText(const Node* control) {
  const Node* scope = control->Ancestor("tr");
  if (scope == nullptr) scope = control->parent();
  if (scope == nullptr) return "";
  std::string last;
  bool found = false;
  std::vector<const Node*> order;
  std::vector<const Node*> work{scope};
  while (!work.empty()) {
    const Node* n = work.back();
    work.pop_back();
    order.push_back(n);
    const auto& ch = n->children();
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) {
      work.push_back(it->get());
    }
  }
  for (const Node* n : order) {
    if (n == control) {
      found = true;
      break;
    }
    if (n->is_text()) {
      auto trimmed = strings::Trim(n->text());
      if (!trimmed.empty()) last = std::string(trimmed);
    }
  }
  if (!found) return "";
  while (!last.empty() && (last.back() == ':' || last.back() == ' ')) {
    last.pop_back();
  }
  return last;
}

std::string LabelFor(const Node* control,
                     const std::map<std::string, std::string>& for_labels) {
  std::string id = control->GetAttr("id");
  if (!id.empty()) {
    auto it = for_labels.find(id);
    if (it != for_labels.end()) return it->second;
  }
  if (const Node* wrap = control->Ancestor("label")) {
    return wrap->InnerText();
  }
  return PrecedingText(control);
}

std::vector<Form> ExtractForms(const Node& root) {
  std::vector<Form> forms;
  auto for_labels = CollectForLabels(root);
  for (const Node* form_el : root.Descendants("form")) {
    Form form;
    form.action = form_el->GetAttr("action");
    std::string method = strings::ToLower(form_el->GetAttr("method"));
    form.method = (method == "post") ? "post" : "get";
    std::map<std::string, size_t> radio_index;
    auto add_option_to_radio = [&](const Node* input, FormField* field) {
      FieldOption opt;
      opt.value = input->GetAttr("value");
      opt.label = LabelFor(input, for_labels);
      opt.selected = input->HasAttr("checked");
      field->options.push_back(std::move(opt));
    };
    for (const Node* el : form_el->Descendants("")) {
      if (el->tag() == "input") {
        FieldKind kind = ClassifyInput(*el);
        if (kind == FieldKind::kRadio) {
          std::string name = el->GetAttr("name");
          auto it = radio_index.find(name);
          if (it != radio_index.end()) {
            add_option_to_radio(el, &form.fields[it->second]);
            continue;
          }
          FormField field;
          field.name = name;
          field.kind = FieldKind::kRadio;
          field.id = el->GetAttr("id");
          field.label = LabelFor(el, for_labels);
          add_option_to_radio(el, &field);
          radio_index[name] = form.fields.size();
          form.fields.push_back(std::move(field));
          continue;
        }
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = kind;
        field.default_value = el->GetAttr("value");
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "select") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kSelect;
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        for (const Node* opt_el : el->Descendants("option")) {
          FieldOption opt;
          opt.label = opt_el->InnerText();
          opt.value = opt_el->HasAttr("value") ? opt_el->GetAttr("value")
                                               : opt.label;
          opt.selected = opt_el->HasAttr("selected");
          field.options.push_back(std::move(opt));
        }
        if (!field.options.empty()) {
          field.default_value = field.options.front().value;
          for (const auto& o : field.options) {
            if (o.selected) field.default_value = o.value;
          }
        }
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "textarea") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kText;
        field.default_value = el->InnerText();
        field.id = el->GetAttr("id");
        field.label = LabelFor(el, for_labels);
        form.fields.push_back(std::move(field));
      } else if (el->tag() == "button") {
        FormField field;
        field.name = el->GetAttr("name");
        field.kind = FieldKind::kSubmit;
        field.default_value = el->GetAttr("value");
        field.id = el->GetAttr("id");
        form.fields.push_back(std::move(field));
      }
    }
    forms.push_back(std::move(form));
  }
  return forms;
}

// --- Records ----------------------------------------------------------------

using extract::ExtractionResult;
using extract::Record;

std::string ElementSignature(const Node& el) {
  return el.tag() + "." + el.GetAttr("class");
}

bool IsHeaderRow(const Node& tr) {
  bool any = false;
  for (const auto& child : tr.children()) {
    if (!child->is_element()) continue;
    if (child->tag() == "td") return false;
    if (child->tag() == "th") any = true;
  }
  return any;
}

std::vector<std::string> FieldsOf(const Node& el) {
  std::vector<std::string> fields;
  static constexpr std::string_view kCells[] = {"td", "dd", "span", "li"};
  for (std::string_view cell_tag : kCells) {
    for (const Node* cell : el.Descendants(cell_tag)) {
      std::string text = cell->InnerText();
      if (!text.empty()) fields.push_back(std::move(text));
    }
    if (!fields.empty()) return fields;
  }
  std::string text = el.InnerText();
  if (!text.empty()) fields.push_back(std::move(text));
  return fields;
}

struct Region {
  const Node* parent = nullptr;
  std::string signature;
  std::vector<const Node*> members;
};

void CollectRegions(const Node& node, std::vector<Region>* regions) {
  std::map<std::string, std::vector<const Node*>> groups;
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    groups[ElementSignature(*child)].push_back(child.get());
  }
  for (auto& [sig, members] : groups) {
    if (members.size() < 2) continue;
    std::vector<const Node*> data_members;
    for (const Node* m : members) {
      if (m->tag() == "tr" && IsHeaderRow(*m)) continue;
      if (m->InnerText().empty()) continue;
      data_members.push_back(m);
    }
    if (data_members.size() >= 2) {
      regions->push_back(Region{&node, sig, std::move(data_members)});
    }
  }
  for (const auto& child : node.children()) {
    if (child->is_element()) CollectRegions(*child, regions);
  }
}

const Region* BestRegion(const std::vector<Region>& regions) {
  std::set<const Node*> member_nodes;
  for (const auto& r : regions) {
    for (const Node* m : r.members) member_nodes.insert(m);
  }
  const Region* best = nullptr;
  for (const auto& r : regions) {
    bool nested = false;
    for (const Node* ancestor = r.parent; ancestor != nullptr;
         ancestor = ancestor->parent()) {
      if (member_nodes.count(ancestor)) {
        nested = true;
        break;
      }
    }
    if (nested) continue;
    double avg_len = 0;
    for (const Node* m : r.members) {
      avg_len += static_cast<double>(m->InnerText().size());
    }
    avg_len /= static_cast<double>(r.members.size());
    if (avg_len < 12.0) continue;
    if (best == nullptr || r.members.size() > best->members.size()) {
      best = &r;
    }
  }
  return best;
}

ExtractionResult ExtractRecords(const Node& root) {
  ExtractionResult out;
  std::vector<Region> regions;
  CollectRegions(root, &regions);
  const Region* best = BestRegion(regions);
  if (best == nullptr) return out;
  out.region_signature = best->signature;
  for (const Node* el : best->members) {
    Record rec;
    rec.fields = FieldsOf(*el);
    if (!rec.fields.empty()) out.records.push_back(std::move(rec));
  }
  return out;
}

void CollectBySignature(const Node& node, const std::string& signature,
                        std::vector<const Node*>* out) {
  for (const auto& child : node.children()) {
    if (!child->is_element()) continue;
    if (ElementSignature(*child) == signature &&
        !child->InnerText().empty()) {
      out->push_back(child.get());
    }
    CollectBySignature(*child, signature, out);
  }
}

/// InducedWrapper::Apply for a wrapper whose signature is `signature`.
std::vector<Record> ApplyWrapper(const std::string& signature,
                                 const Node& page) {
  std::vector<const Node*> members;
  if (!signature.empty()) CollectBySignature(page, signature, &members);
  if (members.empty()) {
    std::vector<Region> regions;
    CollectRegions(page, &regions);
    const Region* best = BestRegion(regions);
    if (best != nullptr) members = best->members;
  }
  std::vector<Record> out;
  for (const Node* el : members) {
    if (el->tag() == "tr" && IsHeaderRow(*el)) continue;
    Record rec;
    rec.fields = FieldsOf(*el);
    if (!rec.fields.empty()) out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace reference

// --- Canonical forms ----------------------------------------------------------

const html::Node* Raw(const html::Node* n) { return n; }
const reference::Node* Raw(const std::unique_ptr<reference::Node>& n) {
  return n.get();
}

/// One line per node, pre-order: depth, tag and attributes (name, value,
/// has_value) or text, then (when asked) InnerText and TagPath.
template <typename N>
void Dump(const N& node, size_t depth, bool texts, std::string* out) {
  out->append(depth, ' ');
  if (node.is_element()) {
    out->append("<").append(node.tag());
    for (const auto& a : node.attributes()) {
      out->append(" ").append(a.name);
      if (a.has_value) out->append("=\"").append(a.value).append("\"");
      if (!a.has_value && !a.value.empty()) out->append("=!INVALID");
    }
    out->append(">");
  } else {
    out->append("\"").append(node.text()).append("\"");
  }
  if (texts) {
    out->append(" inner=[").append(node.InnerText()).append("] path=");
    out->append(node.TagPath());
  }
  out->push_back('\n');
  for (const auto& child : node.children()) {
    Dump(*Raw(child), depth + 1, texts, out);
  }
}

template <typename N>
size_t CountNodes(const N& node) {
  size_t count = 1;
  for (const auto& child : node.children()) count += CountNodes(*Raw(child));
  return count;
}

std::string DumpTokens(const std::vector<html::Token>& tokens) {
  std::string out;
  for (const auto& t : tokens) {
    out += std::to_string(static_cast<int>(t.kind)) + " " + t.name + " [" +
           t.text + "]";
    for (const auto& a : t.attributes) {
      out += " " + a.name + (a.has_value ? "=" + a.value : "");
    }
    out += t.self_closing ? " /\n" : "\n";
  }
  return out;
}

std::string DumpRecords(const std::vector<extract::Record>& records) {
  std::string out;
  for (const auto& r : records) {
    for (const auto& f : r.fields) out += f + "\x1f";
    out += "\n";
  }
  return out;
}

std::string DumpForms(const std::vector<html::Form>& forms) {
  std::ostringstream out;
  for (const auto& form : forms) {
    out << "form " << form.action << " " << form.method << "\n";
    for (const auto& f : form.fields) {
      out << " field " << f.name << "|" << html::FieldKindToString(f.kind)
          << "|" << f.default_value << "|" << f.label << "|" << f.id << "\n";
      for (const auto& o : f.options) {
        out << "  option " << o.value << "|" << o.label << "|" << o.selected
            << "\n";
      }
    }
  }
  return out.str();
}

std::string DumpTables(const std::vector<html::ExtractedTable>& tables) {
  std::string out;
  for (const auto& t : tables) {
    out += t.header_was_th ? "table th\n" : "table\n";
    out += " " + strings::Join(t.header, "\x1f") + "\n";
    for (const auto& r : t.rows) out += " " + strings::Join(r, "\x1f") + "\n";
  }
  return out;
}

std::string DumpLinks(const std::vector<html::Link>& links) {
  std::string out;
  for (const auto& l : links) out += l.href + " -> " + l.anchor + "\n";
  return out;
}

/// The first differing line of two dumps, for a readable failure.
std::string FirstDifference(const std::string& got, const std::string& want) {
  std::istringstream a(got), b(want);
  std::string la, lb;
  for (size_t line = 1;; ++line) {
    bool ha = static_cast<bool>(std::getline(a, la));
    bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "identical";
    if (!ha || !hb || la != lb) {
      return "line " + std::to_string(line) + "\n  got:  " +
             (ha ? la : "<end>") + "\n  want: " + (hb ? lb : "<end>");
    }
  }
}

#define EXPECT_SAME_DUMP(got, want, what)                               \
  do {                                                                  \
    const std::string got_ = (got), want_ = (want);                     \
    EXPECT_TRUE(got_ == want_) << (what) << " differs at "              \
                               << FirstDifference(got_, want_);         \
  } while (0)

/// Compares everything the two implementations derive from `page`.
/// `wrapper_sample` is the page the wrapper is induced from (nullptr:
/// `page` itself). With `texts` false the per-node InnerText and TagPath
/// are left out of the dump (the truncation sweep, for time).
void ExpectSameEverywhere(const std::string& page,
                          const std::string* wrapper_sample = nullptr,
                          bool texts = true) {
  SCOPED_TRACE(::testing::Message() << "page of " << page.size()
                                    << " bytes: " << page.substr(0, 120));
  EXPECT_SAME_DUMP(DumpTokens(html::Tokenize(page)),
                   DumpTokens(reference::Tokenize(page)), "tokens");
  auto dom = html::Parse(page);
  auto ref = reference::Parse(page);
  std::string got, want;
  Dump(*dom, 0, texts, &got);
  Dump(*ref, 0, texts, &want);
  EXPECT_SAME_DUMP(got, want, "DOM");
  EXPECT_EQ(dom->SubtreeSize(), CountNodes(*ref));

  auto records = extract::ExtractRecords(*dom);
  auto ref_records = reference::ExtractRecords(*ref);
  EXPECT_EQ(records.region_signature, ref_records.region_signature);
  EXPECT_SAME_DUMP(DumpRecords(records.records),
                   DumpRecords(ref_records.records), "ExtractRecords");

  const std::string& sample = wrapper_sample ? *wrapper_sample : page;
  auto sample_dom = html::Parse(sample);
  auto wrapper = extract::InducedWrapper::Induce(*sample_dom);
  std::string ref_signature =
      reference::ExtractRecords(*reference::Parse(sample)).region_signature;
  EXPECT_EQ(wrapper.signature(), ref_signature);
  EXPECT_SAME_DUMP(DumpRecords(wrapper.Apply(*dom)),
                   DumpRecords(reference::ApplyWrapper(ref_signature, *ref)),
                   "InducedWrapper::Apply");

  EXPECT_SAME_DUMP(DumpForms(html::ExtractForms(*dom)),
                   DumpForms(reference::ExtractForms(*ref)), "ExtractForms");
  EXPECT_SAME_DUMP(DumpTables(html::ExtractTables(*dom)),
                   DumpTables(reference::ExtractTables(*ref)),
                   "ExtractTables");
  EXPECT_SAME_DUMP(DumpLinks(html::ExtractLinks(*dom)),
                   DumpLinks(reference::ExtractLinks(*ref)), "ExtractLinks");
}

// --- Inputs -------------------------------------------------------------------

/// A site's form page, then its result pages: the unconstrained search's
/// first and last page, one page per select option (at most four per
/// menu), a keyword no record holds, a detail page and a missing page.
std::vector<std::string> SitePages(testing_support::SiteHarness* h) {
  std::vector<std::string> urls = {h->site->FormPageUrl()};
  const auto& spec = h->site->spec();
  const size_t rows = spec.tables.front().second->num_rows();
  const size_t last_page = (rows - 1) / static_cast<size_t>(spec.page_size);
  std::vector<core::Bindings> submissions = {
      {}, {{"page", std::to_string(last_page)}}};
  for (const auto& input : h->analyzed.inputs) {
    if (input.is_select) {
      size_t taken = 0;
      for (const auto& v : input.select_values) {
        if (v.empty() || ++taken > 4) continue;
        submissions.push_back({{input.name, v}});
      }
    } else {
      submissions.push_back({{input.name, "zzqxnomatch"}});
    }
  }
  for (const auto& b : submissions) {
    urls.push_back(core::SubmissionUrl(h->analyzed, b).ToCanonicalString());
  }
  urls.push_back("http://site.example.com/item");
  urls.push_back("http://site.example.com/no-such-page");
  std::vector<std::string> pages;
  for (const auto& url : urls) {
    auto resp = h->web.Get(url);
    EXPECT_TRUE(resp.ok()) << url;
    if (resp.ok()) pages.push_back(resp->body);
  }
  return pages;
}

/// The first result page of a `rows`-row site of `domain`.
std::string ResultPage(synthweb::Domain domain, uint64_t seed, size_t rows) {
  auto h = testing_support::MakeSite(domain, seed, rows);
  auto resp = h->web.Get(
      core::SubmissionUrl(h->analyzed, {}).ToCanonicalString());
  EXPECT_TRUE(resp.ok());
  return resp.ok() ? resp->body : "";
}

class HtmlDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HtmlDifferentialTest, EveryDomainsPages) {
  size_t pages = 0;
  for (synthweb::Domain domain : synthweb::AllDomains()) {
    SCOPED_TRACE(synthweb::DomainToString(domain));
    auto h = testing_support::MakeSite(domain, GetParam(), 25);
    std::vector<std::string> site_pages = SitePages(h.get());
    ASSERT_GE(site_pages.size(), 3u);
    // The wrapper is induced from the first result page, as a
    // reconstructor does, and applied to every page of the site.
    const std::string sample = site_pages[1];
    for (const auto& page : site_pages) {
      ExpectSameEverywhere(page);
      ExpectSameEverywhere(page, &sample);
      ++pages;
    }
  }
  EXPECT_GT(pages, 40u);
}

TEST_P(HtmlDifferentialTest, Mutations) {
  // HtmlFuzzTest's mutations (deletions, a stray '<', stray markup,
  // duplicated spans), plus upper-casing a span and inserting a
  // character reference, on a form page and a result page.
  auto h = testing_support::MakeSite(synthweb::Domain::kUsedCars, GetParam(),
                                     30);
  auto form_resp = h->web.Get(h->site->FormPageUrl());
  ASSERT_TRUE(form_resp.ok());
  const std::string sample =
      ResultPage(synthweb::Domain::kUsedCars, GetParam(), 30);
  static constexpr const char* kReferences[] = {"&amp;", "&#65;", "&lt;",
                                                "&#x3E;", "&bogus;", "&"};
  Rng rng(GetParam());
  for (const std::string& page : {form_resp->body, sample}) {
    for (int round = 0; round < 60; ++round) {
      std::string mutated = page;
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(6)) {
        case 0:
          mutated.erase(pos, rng.Uniform(20) + 1);
          break;
        case 1:
          mutated.insert(pos, "<");
          break;
        case 2:
          mutated.insert(pos, "</div><td><");
          break;
        case 3:
          mutated.insert(pos, mutated.substr(pos / 2, 30));
          break;
        case 4: {
          size_t len = std::min<size_t>(rng.Uniform(200) + 1,
                                        mutated.size() - pos);
          for (size_t i = pos; i < pos + len; ++i) {
            mutated[i] = static_cast<char>(
                std::toupper(static_cast<unsigned char>(mutated[i])));
          }
          break;
        }
        default:
          mutated.insert(pos, kReferences[rng.Uniform(std::size(kReferences))]);
          break;
      }
      ExpectSameEverywhere(mutated, &sample);
    }
  }
}

TEST_P(HtmlDifferentialTest, EveryTruncation) {
  // Small pages, cut after every byte: every construct of them meets the
  // end of the page at every point.
  auto h = testing_support::MakeSite(synthweb::Domain::kBooks, GetParam(), 4);
  auto form_resp = h->web.Get(h->site->FormPageUrl());
  ASSERT_TRUE(form_resp.ok());
  for (const std::string& page :
       {form_resp->body,
        ResultPage(synthweb::Domain::kUsedCars, GetParam(), 3)}) {
    for (size_t len = 0; len <= page.size(); ++len) {
      ExpectSameEverywhere(page.substr(0, len), &page, /*texts=*/len % 16 == 0);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(HtmlDifferentialEdgeCases, HandWrittenPages) {
  const std::vector<std::string> pages = {
      "",
      "<",
      "<!",
      "</",
      "<a",
      "<a ",
      "<a x",
      "<a x=",
      "<a x=1",
      "<a x=1 ",
      "<a x=\"1",
      "<a x='1 ",
      "<!x",
      "<!-",
      "<!--",
      "<!-- open comment <b>",
      "</a",
      "</a <b>bold</b>",
      "text <!x <b>bold</b>",
      "<p>x</a",
      "<p>x<a y=\"<b>\" ",
      "<DIV CLASS=\"Item\" ID=Top>Upper</DIV><dIv class=item>mixed</div>",
      "<INPUT NAME=\"Q\" VALUE=\"A&amp;B\" SELECTED>",
      "<a HREF=\"/s?a=1&amp;b=2&#x26;c=&#51;&bogus;&\" TITLE='&lt;x&gt;'>l</a>",
      "<p>&amp; &lt; &gt; &quot; &apos; &nbsp; &copy; &reg; &mdash; &ndash; "
      "&hellip; &#65; &#x41; &#X42; &#0; &#-1; &#x; &#; &#9731; &# 66; "
      "&#+67; &#x0x41; &amp &ampxxxxxxxxxxx; &verylongentityname;</p>",
      "<TITLE>Cars &amp; Trucks</TITLE><SCRIPT>var a = '</b>';</SCRIPT>"
      "<Style>p{}</STYLE ><TextArea>x &lt; y</TEXTAREA\n>"
      "<a href=\"/x\">link</a>",
      "<script>if (a < b) {}</scriptx></script >after",
      "<script>never closed <a href=/x>x</a>",
      "<title>t</title",
      "<table><tr><th>H1</th><th>H2</th></tr>"
      "<tr><td>Honda <b>Civic</b> clean</td><td><a href=/1>4500</a></td></tr>"
      "<tr><td>Ford <i>Focus</i> rough</td><td>  2200 \n </td></tr>"
      "<tr><td>Toyota<script>x()</script> Camry</td><td>6700</td></tr>"
      "</table>",
      "<ul><li>alpha <b>one</b> two three</li><li>beta <i>four</i> five "
      "six</li><li>gamma seven eight nine</li></ul>",
      "<div><p class=r>first <span>record</span> body text</p>"
      "<p class=r>second <span>record</span> body text</p>"
      "<p class=r-x>third record body text here</p>"
      "<p class=r.x>fourth record body text here</p>"
      "<p-x class=r>fifth record body text here</p-x>"
      "<p-x class=r>sixth record body text here</p-x></div>",
      "<dl class=\"record\"><dt>name</dt><dd>First record body</dd></dl>"
      "<dl class=\"record\"><dt>name</dt><dd>Second record body</dd></dl>",
      "<table><tr><td><table><tr><td>inner one a</td><td>b</td></tr>"
      "<tr><td>inner two a</td><td>c</td></tr></table></td><td>x</td></tr>"
      "<tr><td>outer row two text</td><td>y</td></tr></table>",
      "<form action=/s method=POST><table><tr><td>Make:</td><td>"
      "<select name=make><option value=a>A<option selected>B</select></td>"
      "</tr><tr><td>Zip: <input name=zip id=z></td></tr></table>"
      "<label for=z>Postal code</label><label>Kw <input name=kw></label>"
      "<input type=radio name=r value=1 checked> one"
      "<input type=RADIO name=r value=2> two"
      "<textarea name=t>a &amp; b</textarea><button name=go value=1>Go"
      "</button><input type=password name=p></form>",
      "<p>  spaced \t\n words \v\f\r here  </p><p> </p><p></p>",
      "<p>caf\xc3\xa9 \xff\xfe bytes</p><a\xc3 x=1>y</a>",
      std::string("<p>nul\0byte</p>", 15),
  };
  for (const auto& page : pages) ExpectSameEverywhere(page);
  // Every prefix of every hand-written page too.
  for (const auto& page : pages) {
    for (size_t len = 0; len < page.size(); ++len) {
      ExpectSameEverywhere(page.substr(0, len), &page);
    }
  }
}

}  // namespace
}  // namespace deepsurf
