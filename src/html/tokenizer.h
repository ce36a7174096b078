// Copyright 2026 The deepsurf Authors.
//
// HTML5-flavoured tokenizer: turns a byte stream into start tags (with
// attributes), end tags, text, comments and doctypes. Implements the
// pragmatic subset of the WHATWG tokenizer that real-world form pages
// exercise: quoted/unquoted/valueless attributes, self-closing tags,
// RAWTEXT handling for <script>/<style>, and character-reference decoding
// for the common named and numeric entities.
//
// One scanner does the work. Scan() hands what it finds to a TokenSink;
// Tokenize() is the sink that collects Tokens, and the DOM tree builder
// (html/parser.h) is another, so a parse never materializes tokens.
//
// Byte classes follow the C locale and only ASCII is special: whitespace
// is ' ', \t, \n, \v, \f and \r; names are ASCII letters, digits, '-',
// '_' and ':'; only 'A'-'Z' are lowercased. Bytes >= 0x80 are ordinary
// text and never part of a name.
//
// End-of-page rule: a start tag, end tag or `<!` declaration that fails
// because it reached the end of the page turns the rest of the page into
// text (joined with any text before it). Unterminated comments, raw-text
// elements and quoted attribute values that run to the end still
// succeed, as they always did. Every other malformed construct leaves its
// '<' as text and scanning resumes at the next byte. So each byte is
// scanned a bounded number of times and Scan() runs in linear time.

#ifndef DEEPSURF_HTML_TOKENIZER_H_
#define DEEPSURF_HTML_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace deepsurf {
namespace html {

/// Kind of lexical token.
enum class TokenKind {
  kStartTag,
  kEndTag,
  kText,
  kComment,
  kDoctype,
};

/// One HTML attribute. Valueless attributes (e.g. `selected`) carry an
/// empty value with `has_value == false`.
struct Attribute {
  std::string name;   ///< lowercased
  std::string value;  ///< entity-decoded
  bool has_value = false;
};

/// An attribute as views: `name` lowercased, `value` entity-decoded.
/// Whoever hands one out states how long its views live.
struct AttributeView {
  std::string_view name;
  std::string_view value;
  bool has_value = false;
};

/// One lexical token. For tags, `name` is the lowercased element name and
/// `attributes` the decoded attribute list; for text/comments, `text`
/// carries the (entity-decoded) character data.
struct Token {
  TokenKind kind;
  std::string name;
  std::string text;
  std::vector<Attribute> attributes;
  bool self_closing = false;

  /// First attribute with the given (lowercase) name, or nullptr.
  const Attribute* FindAttribute(std::string_view attr_name) const;
};

/// Receives the scanner's tokens in document order. Every view passed in
/// is valid only during the call. Names are lowercased; text is
/// entity-decoded (except <script>/<style> contents, which are verbatim)
/// and never empty; comment and doctype text is verbatim.
class TokenSink {
 public:
  virtual ~TokenSink() = default;
  virtual void StartTag(std::string_view name, const AttributeView* attributes,
                        size_t count, bool self_closing) = 0;
  virtual void EndTag(std::string_view name) = 0;
  virtual void Text(std::string_view text) = 0;
  virtual void Comment(std::string_view /*text*/) {}
  virtual void Doctype(std::string_view /*text*/) {}
};

/// Scans `html` once, calling `sink` for each token. Never fails:
/// malformed markup degrades to text, mirroring browser behaviour (which
/// is what a crawler must cope with).
void Scan(std::string_view html, TokenSink* sink);

/// Decodes the common HTML character references (&amp; &lt; &gt; &quot;
/// &apos; &nbsp; and numeric &#NN; / &#xHH; forms). Unknown references are
/// passed through verbatim.
std::string DecodeEntities(std::string_view s);

/// Encodes the five XML-significant characters for safe embedding in
/// markup. Used by the synthetic-site renderers.
std::string EscapeHtml(std::string_view s);

/// Tokenizes an entire document: Scan() into a token vector.
std::vector<Token> Tokenize(std::string_view html);

}  // namespace html
}  // namespace deepsurf

#endif  // DEEPSURF_HTML_TOKENIZER_H_
