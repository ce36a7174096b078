// Copyright 2026 The deepsurf Authors.
//
// Tree construction: tokens -> DOM, with the implied-close rules that make
// real-world (tag-soup) form pages parse the way browsers parse them.

#ifndef DEEPSURF_HTML_PARSER_H_
#define DEEPSURF_HTML_PARSER_H_

#include <memory>
#include <string_view>

#include "html/dom.h"

namespace deepsurf {
namespace html {

/// Parses a document into a DOM rooted at a synthetic "#document" element,
/// in one pass of the scanner (html/tokenizer.h). The root owns every
/// node and string of the document; `html` need not outlive the call.
/// Never fails: unclosed elements are closed at EOF, stray end tags are
/// dropped, void elements (input, br, img, ...) never take children, and
/// the usual implied closes (a new <li> closes the open <li>, <option>
/// closes <option>, <tr>/<td> close table rows/cells, <p> closes <p>) are
/// applied.
std::unique_ptr<Node> Parse(std::string_view html);

/// True for HTML void elements (no content, no end tag).
bool IsVoidElement(std::string_view tag);

}  // namespace html
}  // namespace deepsurf

#endif  // DEEPSURF_HTML_PARSER_H_
