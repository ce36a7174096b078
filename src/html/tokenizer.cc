#include "html/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace deepsurf {
namespace html {

namespace {

enum ByteClass : uint8_t {
  kSpace = 1,  // C-locale isspace
  kAlpha = 2,  // ASCII letter
  kName = 4,   // letter, digit, '-', '_', ':'
};

constexpr std::array<uint8_t, 256> MakeClassTable() {
  std::array<uint8_t, 256> table{};
  for (int c : {' ', '\t', '\n', '\v', '\f', '\r'}) table[c] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kAlpha | kName;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kAlpha | kName;
  for (int c = '0'; c <= '9'; ++c) table[c] = kName;
  for (int c : {'-', '_', ':'}) table[c] = kName;
  return table;
}
constexpr std::array<uint8_t, 256> kClass = MakeClassTable();

/// C-locale tolower: 'A'-'Z' map to 'a'-'z', every other byte to itself.
constexpr std::array<char, 256> MakeLowerTable() {
  std::array<char, 256> table{};
  for (int c = 0; c < 256; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = static_cast<char>(c - 'A' + 'a');
  return table;
}
constexpr std::array<char, 256> kLower = MakeLowerTable();

bool Is(char c, ByteClass cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}
char Lower(char c) { return kLower[static_cast<unsigned char>(c)]; }

bool HasUpper(std::string_view s) {
  for (char c : s) {
    if (Lower(c) != c) return true;
  }
  return false;
}

bool HasAmpersand(std::string_view s) {
  return !s.empty() && std::memchr(s.data(), '&', s.size()) != nullptr;
}

/// Elements whose content is raw text up to the matching close tag.
constexpr std::string_view kRawTextElements[] = {"script", "style",
                                                 "textarea", "title"};

/// `name` as its kRawTextElements entry, or "" when it is none of them.
std::string_view RawTextElement(std::string_view name) {
  for (std::string_view raw : kRawTextElements) {
    if (name == raw) return raw;
  }
  return {};
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

/// A reference runs from '&' to the first ';' at most this many bytes on.
constexpr size_t kMaxReferenceSpan = 12;

/// Writes the decoded form of `s` to `out` and returns its length, which
/// never exceeds s.size(): every reference is longer than its expansion.
size_t DecodeEntitiesInto(std::string_view s, char* out) {
  char* o = out;
  size_t i = 0;
  while (i < s.size()) {
    const char* amp = static_cast<const char*>(
        std::memchr(s.data() + i, '&', s.size() - i));
    size_t run = (amp == nullptr ? s.size() : amp - s.data()) - i;
    std::memcpy(o, s.data() + i, run);
    o += run;
    i += run;
    if (i == s.size()) break;
    size_t window = std::min(s.size(), i + kMaxReferenceSpan + 1);
    const char* semi = static_cast<const char*>(
        std::memchr(s.data() + i + 1, ';', window - i - 1));
    if (semi == nullptr) {
      *o++ = s[i++];
      continue;
    }
    std::string_view body = s.substr(i + 1, semi - s.data() - i - 1);
    bool decoded = false;
    if (!body.empty() && body[0] == '#') {
      // Numeric reference, decimal or hex; only code points <= 0x7f are
      // emitted as bytes, others become '?' (the corpus is ASCII).
      bool hex = body.size() > 1 && (body[1] == 'x' || body[1] == 'X');
      std::string_view digits = body.substr(hex ? 2 : 1);
      char buf[kMaxReferenceSpan + 1] = {};
      std::memcpy(buf, digits.data(), digits.size());
      long code = std::strtol(buf, nullptr, hex ? 16 : 10);
      if (code > 0) {
        *o++ = code <= 0x7f ? static_cast<char>(code) : '?';
        decoded = true;
      }
    } else {
      for (const auto& e : kEntities) {
        if (body == e.name) {
          std::memcpy(o, e.expansion.data(), e.expansion.size());
          o += e.expansion.size();
          decoded = true;
          break;
        }
      }
    }
    if (decoded) {
      i = semi - s.data() + 1;
    } else {
      *o++ = s[i++];
    }
  }
  return o - out;
}

enum class Markup {
  kConsumed,    // a token was emitted and pos_ moved past it
  kNotMarkup,   // the '<' is text; scanning resumes at the next byte
  kReachedEnd,  // the construct ran into the end of the page
};

/// Cursor-based scanner over the document. Text runs, names and values
/// are spans of the source; only spans that need lowercasing or entity
/// decoding are rewritten, into `scratch_`.
class Scanner {
 public:
  Scanner(std::string_view html, TokenSink* sink) : s_(html), sink_(sink) {}

  void Run() {
    const size_t n = s_.size();
    while (pos_ < n) {
      const char* lt =
          static_cast<const char*>(std::memchr(s_.data() + pos_, '<', n - pos_));
      if (lt == nullptr) break;
      pos_ = lt - s_.data();
      Markup markup = TryMarkup();
      if (markup == Markup::kReachedEnd) break;  // the rest is text
      if (markup == Markup::kConsumed) {
        text_start_ = pos_;
      } else {
        ++pos_;
      }
    }
    pos_ = n;
    FlushText();
  }

 private:
  /// Emits the pending text run [text_start_, pos_).
  void FlushText() {
    if (pos_ > text_start_) {
      sink_->Text(Decoded(s_.substr(text_start_, pos_ - text_start_)));
    }
  }

  std::string_view Decoded(std::string_view s) {
    if (!HasAmpersand(s)) return s;
    scratch_.resize(std::max(scratch_.size(), s.size()));
    return std::string_view(scratch_.data(),
                            DecodeEntitiesInto(s, scratch_.data()));
  }

  Markup TryMarkup() {
    if (pos_ + 1 >= s_.size()) return Markup::kReachedEnd;
    char next = s_[pos_ + 1];
    if (next == '!') return ConsumeBangConstruct();
    if (next == '/') return ConsumeEndTag();
    if (Is(next, kAlpha)) return ConsumeStartTag();
    return Markup::kNotMarkup;
  }

  Markup ConsumeBangConstruct() {
    if (s_.compare(pos_, 4, "<!--") == 0) {
      size_t end = s_.find("-->", pos_ + 4);
      FlushText();
      if (end == std::string_view::npos) {
        sink_->Comment(s_.substr(pos_ + 4));
        pos_ = s_.size();
      } else {
        sink_->Comment(s_.substr(pos_ + 4, end - pos_ - 4));
        pos_ = end + 3;
      }
      return Markup::kConsumed;
    }
    // <!DOCTYPE ...> or other declarations: consume to '>'.
    size_t end = s_.find('>', pos_ + 2);
    if (end == std::string_view::npos) return Markup::kReachedEnd;
    FlushText();
    sink_->Doctype(s_.substr(pos_ + 2, end - pos_ - 2));
    pos_ = end + 1;
    return Markup::kConsumed;
  }

  size_t SkipName(size_t p) const {
    while (p < s_.size() && Is(s_[p], kName)) ++p;
    return p;
  }

  size_t SkipSpace(size_t p) const {
    while (p < s_.size() && Is(s_[p], kSpace)) ++p;
    return p;
  }

  Markup ConsumeEndTag() {
    size_t name_start = pos_ + 2;
    size_t p = SkipName(name_start);
    if (p == name_start) return Markup::kNotMarkup;
    size_t gt = s_.find('>', p);
    if (gt == std::string_view::npos) return Markup::kReachedEnd;
    FlushText();
    std::string_view name = s_.substr(name_start, p - name_start);
    if (HasUpper(name)) {
      scratch_.assign(name);
      for (char& c : scratch_) c = Lower(c);
      name = scratch_;
    }
    sink_->EndTag(name);
    pos_ = gt + 1;
    return Markup::kConsumed;
  }

  Markup ConsumeStartTag() {
    size_t p = SkipName(pos_ + 1);
    std::string_view name = s_.substr(pos_ + 1, p - pos_ - 1);
    bool self_closing = false;
    raw_.clear();
    // Attribute loop.
    while (p < s_.size()) {
      p = SkipSpace(p);
      if (p >= s_.size()) return Markup::kReachedEnd;
      if (s_[p] == '>') {
        ++p;
        break;
      }
      if (s_[p] == '/' && p + 1 < s_.size() && s_[p + 1] == '>') {
        self_closing = true;
        p += 2;
        break;
      }
      // Attribute name.
      size_t name_start = p;
      while (p < s_.size() && s_[p] != '=' && s_[p] != '>' && s_[p] != '/' &&
             !Is(s_[p], kSpace)) {
        ++p;
      }
      if (p == name_start) {
        // Stray character (e.g. lone '/'); skip it defensively.
        ++p;
        continue;
      }
      AttributeView attr;
      attr.name = s_.substr(name_start, p - name_start);
      p = SkipSpace(p);
      if (p < s_.size() && s_[p] == '=') {
        p = SkipSpace(p + 1);
        size_t value_start = p;
        if (p < s_.size() && (s_[p] == '"' || s_[p] == '\'')) {
          size_t close = s_.find(s_[p], p + 1);
          value_start = p + 1;
          p = close == std::string_view::npos ? s_.size() : close;
          attr.value = s_.substr(value_start, p - value_start);
          if (p < s_.size()) ++p;  // closing quote
        } else {
          while (p < s_.size() && !Is(s_[p], kSpace) && s_[p] != '>') ++p;
          attr.value = s_.substr(value_start, p - value_start);
        }
        attr.has_value = true;
      }
      raw_.push_back(attr);
    }
    FlushText();
    pos_ = p;
    EmitStartTag(name, self_closing);
    return Markup::kConsumed;
  }

  /// Lowercases names and decodes values into `scratch_`, sized first so
  /// no view into it moves, then hands the tag to the sink.
  void EmitStartTag(std::string_view raw_name, bool self_closing) {
    size_t need = raw_name.size();
    for (const auto& a : raw_) need += a.name.size() + a.value.size();
    scratch_.resize(std::max(scratch_.size(), need));
    char* out = scratch_.data();
    auto lowered = [&out](std::string_view s) {
      if (!HasUpper(s)) return s;
      std::string_view view(out, s.size());
      for (char c : s) *out++ = Lower(c);
      return view;
    };
    std::string_view name = lowered(raw_name);
    for (auto& a : raw_) {
      a.name = lowered(a.name);
      if (HasAmpersand(a.value)) {
        size_t len = DecodeEntitiesInto(a.value, out);
        a.value = std::string_view(out, len);
        out += len;
      }
    }
    sink_->StartTag(name, raw_.data(), raw_.size(), self_closing);
    // `name` may view scratch_, which the raw text reuses: pass the literal.
    std::string_view raw_text = RawTextElement(name);
    if (!raw_text.empty() && !self_closing) ConsumeRawText(raw_text);
  }

  /// Position of the first "</" + `name` at or after `from`, with the
  /// name matched ASCII-case-insensitively (`name` is lowercase).
  size_t FindCloseTag(std::string_view name, size_t from) const {
    const size_t n = s_.size();
    while (from < n) {
      const char* lt =
          static_cast<const char*>(std::memchr(s_.data() + from, '<', n - from));
      if (lt == nullptr) break;
      size_t i = lt - s_.data();
      if (i + 2 + name.size() <= n && s_[i + 1] == '/') {
        bool match = true;
        for (size_t k = 0; k < name.size() && match; ++k) {
          match = Lower(s_[i + 2 + k]) == name[k];
        }
        if (match) return i;
      }
      from = i + 1;
    }
    return std::string_view::npos;
  }

  /// After <script>/<style>/<textarea>/<title>, content up to the matching
  /// close tag is a single text token (no markup inside).
  void ConsumeRawText(std::string_view name) {
    size_t end = pos_;
    while (true) {
      end = FindCloseTag(name, end);
      if (end == std::string_view::npos) {
        end = s_.size();
        break;
      }
      size_t after = end + 2 + name.size();
      if (after < s_.size() && (s_[after] == '>' || Is(s_[after], kSpace))) {
        break;
      }
      ++end;  // "</scriptx" — not a real close tag
    }
    if (end > pos_) {
      // <textarea> and <title> contents are entity-decoded; script/style
      // are passed through verbatim.
      std::string_view body = s_.substr(pos_, end - pos_);
      sink_->Text(name == "textarea" || name == "title" ? Decoded(body)
                                                        : body);
    }
    if (end >= s_.size()) {
      pos_ = s_.size();
      return;
    }
    size_t gt = s_.find('>', end);
    sink_->EndTag(name);
    pos_ = gt == std::string_view::npos ? s_.size() : gt + 1;
  }

  std::string_view s_;
  TokenSink* sink_;
  size_t pos_ = 0;
  size_t text_start_ = 0;  // start of the pending text run
  std::vector<AttributeView> raw_;
  std::string scratch_;
};

/// The sink behind Tokenize(): owning copies of every token.
class TokenCollector final : public TokenSink {
 public:
  std::vector<Token> tokens;

  void StartTag(std::string_view name, const AttributeView* attributes,
                size_t count, bool self_closing) override {
    Token t = Make(TokenKind::kStartTag, name, {});
    t.self_closing = self_closing;
    t.attributes.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const AttributeView& a = attributes[i];
      t.attributes.push_back(Attribute{std::string(a.name),
                                       std::string(a.value), a.has_value});
    }
    tokens.push_back(std::move(t));
  }
  void EndTag(std::string_view name) override {
    tokens.push_back(Make(TokenKind::kEndTag, name, {}));
  }
  void Text(std::string_view text) override {
    tokens.push_back(Make(TokenKind::kText, {}, text));
  }
  void Comment(std::string_view text) override {
    tokens.push_back(Make(TokenKind::kComment, {}, text));
  }
  void Doctype(std::string_view text) override {
    tokens.push_back(Make(TokenKind::kDoctype, {}, text));
  }

 private:
  static Token Make(TokenKind kind, std::string_view name,
                    std::string_view text) {
    Token t;
    t.kind = kind;
    t.name = std::string(name);
    t.text = std::string(text);
    return t;
  }
};

}  // namespace

const Attribute* Token::FindAttribute(std::string_view attr_name) const {
  for (const auto& a : attributes) {
    if (a.name == attr_name) return &a;
  }
  return nullptr;
}

std::string DecodeEntities(std::string_view s) {
  std::string out(s.size(), '\0');
  out.resize(DecodeEntitiesInto(s, out.data()));
  return out;
}

std::string EscapeHtml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&#39;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void Scan(std::string_view html, TokenSink* sink) {
  Scanner(html, sink).Run();
}

std::vector<Token> Tokenize(std::string_view html) {
  TokenCollector collector;
  Scan(html, &collector);
  return std::move(collector.tokens);
}

}  // namespace html
}  // namespace deepsurf
