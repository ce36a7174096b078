#include "html/text.h"

#include <cctype>

#include "util/strings.h"

namespace deepsurf {
namespace html {

std::string ExtractText(const Node& root) { return root.InnerText(); }

std::vector<Link> ExtractLinks(const Node& root) {
  std::vector<Link> out;
  for (const Node* a : root.Descendants("a")) {
    std::string_view href = a->GetAttr("href");
    if (href.empty()) continue;
    out.push_back(Link{std::string(href), a->InnerText()});
  }
  return out;
}

std::string ExtractTitle(const Node& root) {
  const Node* title = root.FirstDescendant("title");
  return title == nullptr ? "" : title->InnerText();
}

std::string ExtractScriptText(const Node& root) {
  std::string out;
  for (const Node* script : root.Descendants("script")) {
    for (const Node* child : script->children()) {
      if (child->is_text()) {
        out += child->text();
        out.push_back('\n');
      }
    }
  }
  return out;
}

namespace {

bool LooksLikeLabel(const std::string& cell) {
  if (cell.empty() || cell.size() > 30) return false;
  bool has_alpha = false;
  for (char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) return false;
    if (std::isalpha(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

}  // namespace

std::vector<ExtractedTable> ExtractTables(const Node& root) {
  std::vector<ExtractedTable> out;
  for (const Node* table : root.Descendants("table")) {
    // Nested tables are extracted on their own; skip rows belonging to a
    // nested table when processing the outer one.
    std::vector<std::vector<std::string>> rows;
    std::vector<bool> row_is_th;
    for (const Node* tr : table->Descendants("tr")) {
      if (tr->Ancestor("table") != table) continue;
      std::vector<std::string> cells;
      bool all_th = true;
      bool any_cell = false;
      for (const Node* cell : tr->children()) {
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
    if (consistent * 5 < rows.size() * 4) continue;  // < 80% consistent

    ExtractedTable t;
    if (row_is_th[0]) {
      t.header = rows[0];
      t.header_was_th = true;
      rows.erase(rows.begin());
    } else {
      // Infer: first row is a header if every cell looks like a label.
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
        // Synthesize positional names so downstream code has a schema.
        for (size_t i = 0; i < width; ++i) {
          t.header.push_back(strings::Format("col%zu", i));
        }
      }
    }
    if (rows.empty()) continue;
    for (auto& r : rows) {
      r.resize(width);  // pad/truncate ragged rows
      t.rows.push_back(std::move(r));
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace html
}  // namespace deepsurf
