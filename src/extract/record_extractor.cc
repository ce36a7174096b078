#include "extract/record_extractor.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "util/strings.h"

namespace deepsurf {
namespace extract {

std::string Record::Joined() const { return strings::Join(fields, " "); }

namespace {

/// A candidate record element's signature: tag plus class attribute,
/// spelled "tag.class" (the form `region_signature` reports).
struct Signature {
  std::string_view tag;
  std::string_view cls;

  static Signature Of(const html::Node& el) {
    return {el.tag(), el.GetAttr("class")};
  }

  std::string ToString() const {
    std::string out;
    out.reserve(tag.size() + 1 + cls.size());
    out.append(tag).append(1, '.').append(cls);
    return out;
  }

  /// True iff ToString() == spelled.
  bool Matches(std::string_view spelled) const {
    return spelled.size() == tag.size() + 1 + cls.size() &&
           spelled.substr(0, tag.size()) == tag && spelled[tag.size()] == '.' &&
           spelled.substr(tag.size() + 1) == cls;
  }
};

/// Three-way comparison in the byte order of the spelled signatures, so
/// groups keep the order a map keyed by "tag.class" gave them.
int Compare(const Signature& a, const Signature& b) {
  if (a.tag == b.tag) return a.cls.compare(b.cls);
  auto at = [](const Signature& s, size_t i) -> unsigned char {
    if (i < s.tag.size()) return s.tag[i];
    if (i == s.tag.size()) return '.';
    return s.cls[i - s.tag.size() - 1];
  };
  size_t na = a.tag.size() + 1 + a.cls.size();
  size_t nb = b.tag.size() + 1 + b.cls.size();
  for (size_t i = 0; i < std::min(na, nb); ++i) {
    unsigned char ca = at(a, i);
    unsigned char cb = at(b, i);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  return na < nb ? -1 : (na > nb ? 1 : 0);
}

/// True when the row is a header row (all cells are <th>).
bool IsHeaderRow(const html::Node& tr) {
  bool any = false;
  for (const html::Node* child : tr.children()) {
    if (!child->is_element()) continue;
    if (child->tag() == "td") return false;
    if (child->tag() == "th") any = true;
  }
  return any;
}

struct Region {
  const html::Node* parent = nullptr;
  Signature signature;
  std::vector<const html::Node*> members;
};

/// One extraction call over the subtree of `root`. Each node's inner text
/// is built at most once, in a memo indexed by the node's position in
/// the subtree: a text node's collapsed text, "" for <script>/<style>,
/// and for any other element its children's non-empty texts joined by one
/// space, which is exactly the string InnerText() returns.
class Extractor {
 public:
  explicit Extractor(const html::Node& root)
      : base_(root.position()),
        texts_(root.SubtreeSize()),
        built_(texts_.size(), 0) {}

  const std::string& Text(const html::Node& node) {
    size_t slot = Slot(node);
    if (!built_[slot]) {
      built_[slot] = 1;
      std::string& out = texts_[slot];
      if (node.is_text()) {
        out = node.InnerText();
      } else if (node.tag() != "script" && node.tag() != "style") {
        for (const html::Node* child : node.children()) {
          const std::string& text = Text(*child);
          if (text.empty()) continue;
          if (!out.empty()) out.push_back(' ');
          out += text;
        }
      }
    }
    return texts_[slot];
  }

  /// Finds every repeated sibling group in the tree.
  void CollectRegions(const html::Node& node, std::vector<Region>* regions) {
    siblings_.clear();
    for (const html::Node* child : node.children()) {
      if (child->is_element()) {
        siblings_.push_back({Signature::Of(*child), child});
      }
    }
    // Groups in signature order, members in document order.
    std::sort(siblings_.begin(), siblings_.end(),
              [](const Sibling& a, const Sibling& b) {
                int c = Compare(a.signature, b.signature);
                return c != 0 ? c < 0 : a.node->position() < b.node->position();
              });
    for (size_t i = 0, end = 0; i < siblings_.size(); i = end) {
      end = i + 1;
      while (end < siblings_.size() &&
             Compare(siblings_[end].signature, siblings_[i].signature) == 0) {
        ++end;
      }
      if (end - i < 2) continue;
      // Header rows are not records.
      std::vector<const html::Node*> data_members;
      for (size_t k = i; k < end; ++k) {
        const html::Node* m = siblings_[k].node;
        if (m->tag() == "tr" && IsHeaderRow(*m)) continue;
        if (Text(*m).empty()) continue;
        data_members.push_back(m);
      }
      if (data_members.size() >= 2) {
        regions->push_back(
            Region{&node, siblings_[i].signature, std::move(data_members)});
      }
    }
    for (const html::Node* child : node.children()) {
      if (child->is_element()) CollectRegions(*child, regions);
    }
  }

  const Region* BestRegion(const std::vector<Region>& regions) {
    // A region nested inside another region's member is a *sub-record*
    // structure (the fields of one record, e.g. the <dd>s of one <dl>),
    // not the record list itself — discard those first.
    std::vector<uint8_t> is_member(texts_.size(), 0);
    for (const auto& r : regions) {
      for (const html::Node* m : r.members) is_member[Slot(*m)] = 1;
    }
    const Region* best = nullptr;
    for (const auto& r : regions) {
      bool nested = false;
      for (const html::Node* ancestor = r.parent;
           ancestor != nullptr && InSubtree(*ancestor);
           ancestor = ancestor->parent()) {
        if (is_member[Slot(*ancestor)]) {
          nested = true;
          break;
        }
      }
      if (nested) continue;
      // Skip navigational regions: members whose text is one short link
      // word ("prev", "next", menu entries) are unlikely to be records.
      double avg_len = 0;
      for (const html::Node* m : r.members) {
        avg_len += static_cast<double>(Text(*m).size());
      }
      avg_len /= static_cast<double>(r.members.size());
      if (avg_len < 12.0) continue;
      if (best == nullptr || r.members.size() > best->members.size()) {
        best = &r;
      }
    }
    return best;
  }

  /// Every element under `node` whose signature spells `signature` and
  /// whose text is not empty, in document order.
  void CollectBySignature(const html::Node& node, std::string_view signature,
                          std::vector<const html::Node*>* out) {
    for (const html::Node* child : node.children()) {
      if (!child->is_element()) continue;
      if (Signature::Of(*child).Matches(signature) && !Text(*child).empty()) {
        out->push_back(child);
      }
      CollectBySignature(*child, signature, out);
    }
  }

  /// Field strings of one record element. Cell-level containers win;
  /// otherwise the whole text is a single field.
  std::vector<std::string> FieldsOf(const html::Node& el) {
    std::vector<std::string> fields;
    static constexpr std::string_view kCells[] = {"td", "dd", "span", "li"};
    for (std::string_view cell_tag : kCells) {
      AppendCellTexts(el, cell_tag, &fields);
      if (!fields.empty()) return fields;
    }
    const std::string& text = Text(el);
    if (!text.empty()) fields.push_back(text);
    return fields;
  }

 private:
  struct Sibling {
    Signature signature;
    const html::Node* node;
  };

  bool InSubtree(const html::Node& node) const {
    return node.position() >= base_ &&
           node.position() - base_ < texts_.size();
  }

  size_t Slot(const html::Node& node) const {
    return node.position() - base_;
  }

  /// Non-empty texts of the descendants tagged `tag`, in document order.
  void AppendCellTexts(const html::Node& node, std::string_view tag,
                       std::vector<std::string>* fields) {
    for (const html::Node* child : node.children()) {
      if (!child->is_element()) continue;
      if (child->tag() == tag) {
        const std::string& text = Text(*child);
        if (!text.empty()) fields->push_back(text);
      }
      AppendCellTexts(*child, tag, fields);
    }
  }

  size_t base_;
  std::vector<std::string> texts_;
  std::vector<uint8_t> built_;
  std::vector<Sibling> siblings_;  // one node's children while grouping
};

}  // namespace

ExtractionResult ExtractRecords(const html::Node& root) {
  ExtractionResult out;
  Extractor extractor(root);
  std::vector<Region> regions;
  extractor.CollectRegions(root, &regions);
  const Region* best = extractor.BestRegion(regions);
  if (best == nullptr) return out;
  out.region_signature = best->signature.ToString();
  for (const html::Node* el : best->members) {
    Record rec;
    rec.fields = extractor.FieldsOf(*el);
    if (!rec.fields.empty()) out.records.push_back(std::move(rec));
  }
  return out;
}

size_t CountRecords(const html::Node& root) {
  return ExtractRecords(root).records.size();
}

InducedWrapper InducedWrapper::Induce(const html::Node& sample) {
  InducedWrapper w;
  w.signature_ = ExtractRecords(sample).region_signature;
  return w;
}

std::vector<Record> InducedWrapper::Apply(const html::Node& page) const {
  // The wrapper knows the record signature, so unlike blind extraction it
  // accepts even a *single* matching element — a one-result page is still
  // one record, not a bag of field-level fragments.
  Extractor extractor(page);
  std::vector<const html::Node*> members;
  if (!signature_.empty()) {
    extractor.CollectBySignature(page, signature_, &members);
  }
  if (members.empty()) {
    // Signature absent from this page: fall back to blind extraction.
    std::vector<Region> regions;
    extractor.CollectRegions(page, &regions);
    const Region* best = extractor.BestRegion(regions);
    if (best != nullptr) members = best->members;
  }
  std::vector<Record> out;
  for (const html::Node* el : members) {
    if (el->tag() == "tr" && IsHeaderRow(*el)) continue;
    Record rec;
    rec.fields = extractor.FieldsOf(*el);
    if (!rec.fields.empty()) out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace extract
}  // namespace deepsurf
