// Tests for the HTML tokenizer.

#include <gtest/gtest.h>

#include "html/tokenizer.h"

namespace deepsurf {
namespace html {
namespace {

std::vector<Token> Tok(const std::string& s) { return Tokenize(s); }

TEST(TokenizerTest, PlainText) {
  auto tokens = Tok("hello world");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kText);
  EXPECT_EQ(tokens[0].text, "hello world");
}

TEST(TokenizerTest, SimpleElement) {
  auto tokens = Tok("<p>hi</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].name, "p");
  EXPECT_EQ(tokens[1].text, "hi");
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[2].name, "p");
}

TEST(TokenizerTest, TagNamesAreLowercased) {
  auto tokens = Tok("<DiV></dIv>");
  EXPECT_EQ(tokens[0].name, "div");
  EXPECT_EQ(tokens[1].name, "div");
}

TEST(TokenizerTest, QuotedAttributes) {
  auto tokens = Tok("<input type=\"text\" name='q' value=\"a b\">");
  ASSERT_EQ(tokens.size(), 1u);
  const auto& t = tokens[0];
  EXPECT_EQ(t.FindAttribute("type")->value, "text");
  EXPECT_EQ(t.FindAttribute("name")->value, "q");
  EXPECT_EQ(t.FindAttribute("value")->value, "a b");
}

TEST(TokenizerTest, UnquotedAttribute) {
  auto tokens = Tok("<input type=text name=q>");
  EXPECT_EQ(tokens[0].FindAttribute("type")->value, "text");
  EXPECT_EQ(tokens[0].FindAttribute("name")->value, "q");
}

TEST(TokenizerTest, ValuelessAttribute) {
  auto tokens = Tok("<option selected value=\"x\">");
  const Attribute* sel = tokens[0].FindAttribute("selected");
  ASSERT_NE(sel, nullptr);
  EXPECT_FALSE(sel->has_value);
  EXPECT_TRUE(tokens[0].FindAttribute("value")->has_value);
}

TEST(TokenizerTest, SelfClosingTag) {
  auto tokens = Tok("<br/>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].self_closing);
}

TEST(TokenizerTest, AttributeNamesLowercased) {
  auto tokens = Tok("<input NAME=\"Q\">");
  EXPECT_NE(tokens[0].FindAttribute("name"), nullptr);
  EXPECT_EQ(tokens[0].FindAttribute("name")->value, "Q");  // value kept
}

TEST(TokenizerTest, Comment) {
  auto tokens = Tok("a<!-- hidden -->b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].text, " hidden ");
}

TEST(TokenizerTest, Doctype) {
  auto tokens = Tok("<!DOCTYPE html><p>x</p>");
  EXPECT_EQ(tokens[0].kind, TokenKind::kDoctype);
}

TEST(TokenizerTest, ScriptContentIsRawText) {
  auto tokens = Tok("<script>if (a < b && c > d) {}</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[1].text, "if (a < b && c > d) {}");
}

TEST(TokenizerTest, TextareaContentIsDecodedRawText) {
  auto tokens = Tok("<textarea>&lt;tag&gt;</textarea>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "<tag>");
}

TEST(TokenizerTest, UnterminatedScriptConsumesToEof) {
  auto tokens = Tok("<script>var x = 1;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].text, "var x = 1;");
}

TEST(TokenizerTest, LoneLessThanIsText) {
  auto tokens = Tok("3 < 4");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].text, "3 < 4");
}

TEST(TokenizerTest, MalformedCloseTagDropped) {
  auto tokens = Tok("a</>b");
  // "</>" opens no end tag; '<' becomes text.
  std::string all;
  for (const auto& t : tokens) {
    if (t.kind == TokenKind::kText) all += t.text;
  }
  EXPECT_EQ(all, "a</>b");
}

TEST(EntityTest, NamedEntities) {
  EXPECT_EQ(DecodeEntities("a &amp; b"), "a & b");
  EXPECT_EQ(DecodeEntities("&lt;x&gt;"), "<x>");
  EXPECT_EQ(DecodeEntities("&quot;q&quot;"), "\"q\"");
  EXPECT_EQ(DecodeEntities("&nbsp;"), " ");
}

TEST(EntityTest, NumericEntities) {
  EXPECT_EQ(DecodeEntities("&#65;"), "A");
  EXPECT_EQ(DecodeEntities("&#x41;"), "A");
  EXPECT_EQ(DecodeEntities("&#9731;"), "?");  // non-ASCII becomes '?'
}

TEST(EntityTest, UnknownEntitiesPassThrough) {
  EXPECT_EQ(DecodeEntities("&bogus;"), "&bogus;");
  EXPECT_EQ(DecodeEntities("5 & 6"), "5 & 6");
}

TEST(EntityTest, EscapeRoundTrip) {
  std::string raw = "<a href=\"x\">&'</a>";
  EXPECT_EQ(DecodeEntities(EscapeHtml(raw)), raw);
}

TEST(TokenizerTest, AttributeEntityDecoding) {
  auto tokens = Tok("<a href=\"/s?a=1&amp;b=2\">x</a>");
  EXPECT_EQ(tokens[0].FindAttribute("href")->value, "/s?a=1&b=2");
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tok("").empty());
}

TEST(TokenizerTest, ConstructReachingEndOfPageMakesTheRestText) {
  // Each of these fails only because the page ends; what follows the
  // failed construct stays text too (a "<a" at the very end would
  // otherwise open an element).
  for (std::string page :
       {"t </a <a", "t <!x <a", "t <a x=1 ", "t <a ", "<", "x<"}) {
    auto tokens = Tok(page);
    ASSERT_EQ(tokens.size(), 1u) << page;
    EXPECT_EQ(tokens[0].kind, TokenKind::kText);
    EXPECT_EQ(tokens[0].text, page);
  }
  // Constructs that run to the end and succeed are unchanged.
  auto tokens = Tok("<a x=\"1");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].FindAttribute("x")->value, "1");
  tokens = Tok("a<!-- open");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
}

TEST(TokenizerTest, RepeatedUnfinishedConstructIsOneTextToken) {
  for (std::string unit : {"</a", "<!x", "<a x=1 "}) {
    std::string page;
    while (page.size() < 16 * 1024) page += unit;
    auto tokens = Tok(page);
    ASSERT_EQ(tokens.size(), 1u) << unit;
    EXPECT_EQ(tokens[0].kind, TokenKind::kText);
    EXPECT_EQ(tokens[0].text, page);
  }
}

TEST(TokenizerTest, RawTextCloseTagMatchesAnyCase) {
  auto tokens = Tok("<TITLE>Cars</TITLE><SCRIPT>a</Script ><p>x</p>");
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[1].text, "Cars");
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[2].name, "title");
  EXPECT_EQ(tokens[4].text, "a");
  EXPECT_EQ(tokens[5].name, "script");
  EXPECT_EQ(tokens[6].name, "p");
}

}  // namespace
}  // namespace html
}  // namespace deepsurf
