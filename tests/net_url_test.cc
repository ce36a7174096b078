// Tests for URL parsing, encoding and resolution.

#include <gtest/gtest.h>

#include "net/url.h"

namespace deepsurf {
namespace net {
namespace {

TEST(UrlEncodeTest, UnreservedPassThrough) {
  EXPECT_EQ(FormUrlEncode("abc-XYZ_0.9~"), "abc-XYZ_0.9~");
}

TEST(UrlEncodeTest, SpaceBecomesPlus) {
  EXPECT_EQ(FormUrlEncode("san diego"), "san+diego");
}

TEST(UrlEncodeTest, ReservedEscaped) {
  EXPECT_EQ(FormUrlEncode("a&b=c"), "a%26b%3Dc");
  EXPECT_EQ(FormUrlEncode("50%"), "50%25");
}

TEST(UrlDecodeTest, RoundTrip) {
  std::string original = "a b&c=d %100 ~x";
  EXPECT_EQ(FormUrlDecode(FormUrlEncode(original)), original);
}

TEST(UrlDecodeTest, MalformedEscapesPreserved) {
  EXPECT_EQ(FormUrlDecode("%zz"), "%zz");
  EXPECT_EQ(FormUrlDecode("100%"), "100%");
}

TEST(QueryCodecTest, EncodeDecode) {
  QueryParams params = {{"q", "used cars"}, {"zip", "90210"}};
  std::string encoded = EncodeQuery(params);
  EXPECT_EQ(encoded, "q=used+cars&zip=90210");
  EXPECT_EQ(DecodeQuery(encoded), params);
}

TEST(QueryCodecTest, ToleratesEmptySegmentsAndMissingValues) {
  auto params = DecodeQuery("a=1&&flag&b=2");
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[1].first, "flag");
  EXPECT_EQ(params[1].second, "");
}

TEST(UrlParseTest, FullUrl) {
  auto url = Url::Parse("http://cars.example.com:8080/search?make=Honda&x=1");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "cars.example.com");
  EXPECT_EQ(url->port(), 8080);
  EXPECT_EQ(url->path(), "/search");
  EXPECT_EQ(url->GetParam("make"), "Honda");
  EXPECT_EQ(url->GetParam("x"), "1");
}

TEST(UrlParseTest, DefaultsPathAndPort) {
  auto url = Url::Parse("http://example.com");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->port(), 0);
}

TEST(UrlParseTest, HostLowercased) {
  auto url = Url::Parse("HTTP://EXAMPLE.com/Path");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "example.com");
  EXPECT_EQ(url->path(), "/Path");  // path case preserved
}

TEST(UrlParseTest, MissingSchemeFails) {
  EXPECT_FALSE(Url::Parse("example.com/x").ok());
}

TEST(UrlParseTest, MissingHostFails) {
  EXPECT_FALSE(Url::Parse("http:///x").ok());
}

TEST(UrlParseTest, QueryWithoutPath) {
  auto url = Url::Parse("http://h.com?a=1");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->GetParam("a"), "1");
}

TEST(UrlToStringTest, RoundTrip) {
  auto url = Url::Parse("http://h.com/search?q=used+cars&zip=90210");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->ToString(), "http://h.com/search?q=used+cars&zip=90210");
}

TEST(UrlCanonicalTest, SortsParams) {
  auto a = Url::Parse("http://h.com/s?b=2&a=1");
  auto b = Url::Parse("http://h.com/s?a=1&b=2");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToCanonicalString(), b->ToCanonicalString());
  EXPECT_EQ(*a, *b);
}

TEST(UrlResolveTest, AbsoluteRefWins) {
  auto base = Url::Parse("http://a.com/dir/page").value();
  auto resolved = Url::Resolve(base, "http://b.com/x");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->host(), "b.com");
  // Any case, and digits, '+', '-' and '.' after the first letter.
  auto other = Url::Resolve(base, "Svn+SSH.2-x://c.com/y");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->scheme(), "svn+ssh.2-x");
  EXPECT_EQ(other->host(), "c.com");
}

TEST(UrlResolveTest, AbsolutePath) {
  auto base = Url::Parse("http://a.com/dir/page?z=1").value();
  auto resolved = Url::Resolve(base, "/other?x=2");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->host(), "a.com");
  EXPECT_EQ(resolved->path(), "/other");
  EXPECT_EQ(resolved->GetParam("x"), "2");
  EXPECT_FALSE(resolved->HasParam("z"));  // base query dropped
}

TEST(UrlResolveTest, RelativePath) {
  auto base = Url::Parse("http://a.com/dir/page").value();
  auto resolved = Url::Resolve(base, "sub?k=v");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->path(), "/dir/sub");
  EXPECT_EQ(resolved->GetParam("k"), "v");
}

TEST(UrlResolveTest, BareQueryString) {
  auto base = Url::Parse("http://a.com/search").value();
  auto resolved = Url::Resolve(base, "?page=2");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->path(), "/search");
  EXPECT_EQ(resolved->GetParam("page"), "2");
}

TEST(UrlResolveTest, UrlInAQueryStaysRelative) {
  auto base = Url::Parse("http://site.example.com/search/form").value();
  auto resolved = Url::Resolve(base, "/go?next=http://other.example.com/x");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->scheme(), "http");
  EXPECT_EQ(resolved->host(), "site.example.com");
  EXPECT_EQ(resolved->path(), "/go");
  EXPECT_EQ(resolved->GetParam("next"), "http://other.example.com/x");
}

TEST(UrlResolveTest, RelativePathWithSchemeSeparatorInItsQuery) {
  auto base = Url::Parse("http://site.example.com/search/form").value();
  auto resolved = Url::Resolve(base, "results?q=a://b");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->host(), "site.example.com");
  EXPECT_EQ(resolved->path(), "/search/results");
  EXPECT_EQ(resolved->GetParam("q"), "a://b");
}

TEST(UrlResolveTest, EmptyRefIsBase) {
  auto base = Url::Parse("http://a.com/x?q=1").value();
  auto resolved = Url::Resolve(base, "");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->ToString(), base.ToString());
}

TEST(UrlParamTest, AddAndGet) {
  Url url;
  url.set_host("h.com");
  url.set_path("/s");
  url.AddParam("a", "1");
  url.AddParam("a", "2");
  EXPECT_EQ(url.GetParam("a"), "1");  // first value
  EXPECT_TRUE(url.HasParam("a"));
  EXPECT_FALSE(url.HasParam("b"));
}

TEST(UrlParamTest, EncodedValueSurvivesRoundTrip) {
  Url url;
  url.set_host("h.com");
  url.AddParam("q", "a&b=c d");
  auto reparsed = Url::Parse(url.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->GetParam("q"), "a&b=c d");
}

TEST(UrlParseTest, BadPortFails) {
  EXPECT_FALSE(Url::Parse("http://h.com:99999/x").ok());
}

TEST(UrlParseTest, HostHoldingAColonBesideThePortFails) {
  // "h:0" with port 0 would print as "http://h:0/", which is host "h".
  EXPECT_FALSE(Url::Parse("http://h:0:0/").ok());
  EXPECT_FALSE(Url::Parse("http://h:1:2/").ok());
  // An empty host with port 0 would print as "http:///x".
  EXPECT_FALSE(Url::Parse("http://:0/x").ok());
  EXPECT_TRUE(Url::Parse("http://h:0/").ok());
}

TEST(UrlToStringTest, DecodedPlusPercentAndQuestionMarkStayInThePath) {
  auto url = Url::Parse("http://h/a%2Bb%25c%3Fd e");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path(), "/a+b%c?d e");
  EXPECT_EQ(url->ToString(), "http://h/a%2Bb%25c%3Fd%20e");
  auto reparsed = Url::Parse(url->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->path(), "/a+b%c?d e");
  EXPECT_TRUE(reparsed->query().empty());
}

}  // namespace
}  // namespace net
}  // namespace deepsurf
