// Tests for DOM construction (tree builder + Node helpers).

#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "extract/record_extractor.h"
#include "html/forms.h"
#include "html/parser.h"
#include "html/text.h"

namespace deepsurf {
namespace html {
namespace {

TEST(ParserTest, SimpleTree) {
  auto root = Parse("<html><body><p>hi</p></body></html>");
  const Node* p = root->FirstDescendant("p");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->InnerText(), "hi");
  EXPECT_EQ(p->Ancestor("body")->tag(), "body");
}

TEST(ParserTest, VoidElementsTakeNoChildren) {
  auto root = Parse("<p><br>text after br</p>");
  const Node* br = root->FirstDescendant("br");
  ASSERT_NE(br, nullptr);
  EXPECT_TRUE(br->children().empty());
  EXPECT_EQ(root->FirstDescendant("p")->InnerText(), "text after br");
}

TEST(ParserTest, InputIsVoid) {
  auto root = Parse("<form><input name=a><input name=b></form>");
  auto inputs = root->Descendants("input");
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0]->parent()->tag(), "form");
  EXPECT_EQ(inputs[1]->parent()->tag(), "form");
}

TEST(ParserTest, ImpliedLiClose) {
  auto root = Parse("<ul><li>one<li>two<li>three</ul>");
  auto lis = root->Descendants("li");
  ASSERT_EQ(lis.size(), 3u);
  for (const Node* li : lis) {
    EXPECT_EQ(li->parent()->tag(), "ul");
  }
  EXPECT_EQ(lis[0]->InnerText(), "one");
  EXPECT_EQ(lis[2]->InnerText(), "three");
}

TEST(ParserTest, ImpliedOptionClose) {
  auto root = Parse(
      "<select><option value=a>A<option value=b>B</select>");
  auto options = root->Descendants("option");
  ASSERT_EQ(options.size(), 2u);
  EXPECT_EQ(options[0]->InnerText(), "A");
  EXPECT_EQ(options[1]->InnerText(), "B");
}

TEST(ParserTest, ImpliedTableRowAndCellClose) {
  auto root = Parse(
      "<table><tr><td>1<td>2<tr><td>3<td>4</table>");
  auto trs = root->Descendants("tr");
  ASSERT_EQ(trs.size(), 2u);
  EXPECT_EQ(trs[0]->Descendants("td").size(), 2u);
  EXPECT_EQ(trs[1]->Descendants("td").size(), 2u);
}

TEST(ParserTest, ImpliedParagraphClose) {
  auto root = Parse("<p>one<p>two");
  auto ps = root->Descendants("p");
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0]->InnerText(), "one");
  EXPECT_EQ(ps[1]->InnerText(), "two");
}

TEST(ParserTest, StrayEndTagIgnored) {
  auto root = Parse("<div>a</span>b</div>");
  EXPECT_EQ(root->FirstDescendant("div")->InnerText(), "a b");
}

TEST(ParserTest, UnclosedElementsClosedAtEof) {
  auto root = Parse("<div><p>unclosed");
  EXPECT_NE(root->FirstDescendant("p"), nullptr);
  EXPECT_EQ(root->FirstDescendant("p")->InnerText(), "unclosed");
}

TEST(ParserTest, GetAttrAndHasAttr) {
  auto root = Parse("<a href=\"/x\" data-k>link</a>");
  const Node* a = root->FirstDescendant("a");
  EXPECT_EQ(a->GetAttr("href"), "/x");
  EXPECT_TRUE(a->HasAttr("data-k"));
  EXPECT_FALSE(a->HasAttr("missing"));
  EXPECT_EQ(a->GetAttr("missing"), "");
}

TEST(ParserTest, InnerTextSkipsScriptAndStyle) {
  auto root = Parse(
      "<body>visible<script>var hidden = 1;</script>"
      "<style>.x{color:red}</style>more</body>");
  EXPECT_EQ(root->InnerText(), "visible more");
}

TEST(ParserTest, InnerTextCollapsesWhitespace) {
  auto root = Parse("<p>  a \n\n  b\t c  </p>");
  EXPECT_EQ(root->FirstDescendant("p")->InnerText(), "a b c");
}

TEST(ParserTest, DescendantsAllElements) {
  auto root = Parse("<div><p><b>x</b></p><p>y</p></div>");
  EXPECT_EQ(root->Descendants("").size(), 4u);  // div, p, b, p
  EXPECT_EQ(root->Descendants("p").size(), 2u);
}

TEST(ParserTest, TagPath) {
  auto root = Parse("<html><body><table><tr><td>x</td></tr></table></body>");
  const Node* td = root->FirstDescendant("td");
  EXPECT_EQ(td->TagPath(), "#document/html/body/table/tr/td");
}

TEST(ParserTest, ElementCount) {
  auto root = Parse("<div><p>a</p><p>b</p></div>");
  EXPECT_EQ(root->ElementCount(), 4u);  // #document + div + 2 p
}

TEST(ParserTest, SelfClosingDoesNotNest) {
  auto root = Parse("<div><img src=x/>text</div>");
  EXPECT_EQ(root->FirstDescendant("div")->InnerText(), "text");
  EXPECT_TRUE(root->FirstDescendant("img")->children().empty());
}

TEST(ParserTest, IsVoidElementList) {
  EXPECT_TRUE(IsVoidElement("br"));
  EXPECT_TRUE(IsVoidElement("input"));
  EXPECT_TRUE(IsVoidElement("img"));
  EXPECT_FALSE(IsVoidElement("div"));
  EXPECT_FALSE(IsVoidElement("select"));
}

TEST(ParserTest, DlDtDdImpliedCloses) {
  auto root = Parse("<dl><dt>k1<dd>v1<dt>k2<dd>v2</dl>");
  EXPECT_EQ(root->Descendants("dt").size(), 2u);
  EXPECT_EQ(root->Descendants("dd").size(), 2u);
}

TEST(ParserTest, UnfinishedMarkupAtEndOfPageParsesInLinearTime) {
  // Each unit opens a construct that only the end of the page stops; a
  // rescan from every '<' made these quadratic.
  for (std::string unit : {"</a", "<!x", "<a x=1 "}) {
    std::string page;
    while (page.size() < 256 * 1024) page += unit;
    auto start = std::chrono::steady_clock::now();
    auto root = Parse(page);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(seconds, 1.0) << unit;
    ASSERT_EQ(root->SubtreeSize(), 2u) << unit;
    const Node* text = *root->children().begin();
    EXPECT_TRUE(text->is_text());
    EXPECT_EQ(text->text(), page);
  }
}

TEST(ParserTest, RawTextCloseTagsMatchAnyCase) {
  auto root = Parse(
      "<TITLE>Cars</TITLE><SCRIPT>var b = \"<b>\";</SCRIPT>"
      "<Style>p{}</STYLE><TextArea>t</TEXTAREA>"
      "<a href=\"/x\">link</a>");
  EXPECT_EQ(ExtractTitle(*root), "Cars");
  auto links = ExtractLinks(*root);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].href, "/x");
  EXPECT_EQ(links[0].anchor, "link");
  EXPECT_EQ(ExtractText(*root), "Cars t link");
  EXPECT_EQ(ExtractScriptText(*root), "var b = \"<b>\";\n");
}

TEST(ParserTest, PositionsArePreOrder) {
  auto root = Parse("<div><p>a</p>b<p>c</p></div>d");
  EXPECT_EQ(root->position(), 0u);
  EXPECT_EQ(root->SubtreeSize(), 8u);
  std::vector<size_t> seen;
  std::vector<const Node*> work{root.get()};
  while (!work.empty()) {
    const Node* n = work.back();
    work.pop_back();
    seen.push_back(n->position());
    std::vector<const Node*> kids(n->children().begin(), n->children().end());
    work.insert(work.end(), kids.rbegin(), kids.rend());
  }
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(root->FirstDescendant("div")->SubtreeSize(), 6u);
}

TEST(ParserTest, DeepNestingIsCappedAndKeepsItsText) {
  // A hostile page of 100,000 nested divs: every reader of the tree
  // recurses once per level, so an uncapped tree overflows the stack.
  // Past the cap, tags still enter the tree but are not opened, so the
  // words inside them stay in the document.
  constexpr int kDepth = 100000;
  std::string page = "<form action=/s><input name=q></form><a href=/x>go</a>";
  std::string expected = "go";
  for (int i = 0; i < kDepth; ++i) {
    page += "<div>";
    if (i % 10000 == 0) {
      page += "w" + std::to_string(i) + " ";
      expected += " w" + std::to_string(i);
    }
  }
  page += "deepest";
  expected += " deepest";
  for (int i = 0; i < kDepth; ++i) page += "</div>";

  auto root = Parse(page);
  EXPECT_EQ(root->SubtreeSize(), 5u + kDepth + 11u);
  // 512 opened divs, then the first of the unopened ones below them.
  size_t levels = 0;
  for (const Node* n = root->FirstDescendant("div"); n != nullptr;
       n = n->FirstDescendant("div")) {
    ++levels;
  }
  EXPECT_EQ(levels, 513u);
  EXPECT_EQ(ExtractText(*root), expected);
  auto links = ExtractLinks(*root);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].href, "/x");
  auto forms = ExtractForms(*root);
  ASSERT_EQ(forms.size(), 1u);
  EXPECT_EQ(forms[0].action, "/s");
  EXPECT_TRUE(extract::ExtractRecords(*root).records.empty());
}

}  // namespace
}  // namespace html
}  // namespace deepsurf
