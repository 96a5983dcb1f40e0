// Tests for the URL/form codecs, HTTP message codecs, and HTML builders.
#include "web/html.hpp"
#include "web/http.hpp"
#include "web/url.hpp"

#include <gtest/gtest.h>

namespace powerplay::web {
namespace {

TEST(Url, EncodeBasics) {
  EXPECT_EQ(url_encode("abc123-_.~"), "abc123-_.~");
  EXPECT_EQ(url_encode("Read Bank"), "Read+Bank");
  EXPECT_EQ(url_encode("a/b?c&d=e"), "a%2Fb%3Fc%26d%3De");
}

TEST(Url, DecodeBasics) {
  EXPECT_EQ(url_decode("Read+Bank"), "Read Bank");
  EXPECT_EQ(url_decode("a%2Fb"), "a/b");
  EXPECT_EQ(url_decode("%41%42"), "AB");
  // Malformed sequences pass through literally.
  EXPECT_EQ(url_decode("100%"), "100%");
  EXPECT_EQ(url_decode("%G1"), "%G1");
}

// Property: decode(encode(s)) == s over a corpus including every byte
// class the spreadsheet can produce.
class UrlRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(UrlRoundTrip, DecodeEncodeIdentity) {
  const std::string s = GetParam();
  EXPECT_EQ(url_decode(url_encode(s)), s);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, UrlRoundTrip,
    ::testing::Values("", "plain", "with space", "a+b", "100%", "x=y&z",
                      "pixel_rate/16", "rowpower(\"Read Bank\")",
                      "quote\"back\\slash", "ünïcodé bytes",
                      "tab\tnewline\n"));

TEST(Url, ParseQuery) {
  const Params p = parse_query("user=dl&design=Luminance+1&empty=&flag");
  EXPECT_EQ(get_or(p, "user"), "dl");
  EXPECT_EQ(get_or(p, "design"), "Luminance 1");
  EXPECT_EQ(get_or(p, "empty"), "");
  EXPECT_TRUE(p.contains("flag"));
  EXPECT_EQ(get_or(p, "missing", "dflt"), "dflt");
}

TEST(Url, ParseTarget) {
  const Target t = parse_target("/model?name=sram&user=dl");
  EXPECT_EQ(t.path, "/model");
  EXPECT_EQ(get_or(t.query, "name"), "sram");
  const Target bare = parse_target("/menu");
  EXPECT_EQ(bare.path, "/menu");
  EXPECT_TRUE(bare.query.empty());
}

TEST(Url, ToQueryRoundTrip) {
  const Params p{{"a b", "c&d"}, {"x", "1"}};
  EXPECT_EQ(parse_query(to_query(p)), p);
}

TEST(Http, RequestRoundTrip) {
  Request req;
  req.method = "POST";
  req.target = "/design/play?user=dl";
  req.headers["content-type"] = "application/x-www-form-urlencoded";
  req.body = "g_vdd=1.5&name=Luminance_1";
  const Request back = parse_request(to_wire(req));
  EXPECT_EQ(back.method, "POST");
  EXPECT_EQ(back.target, req.target);
  EXPECT_EQ(back.body, req.body);
  const Params all = back.all_params();
  EXPECT_EQ(get_or(all, "user"), "dl");
  EXPECT_EQ(get_or(all, "g_vdd"), "1.5");
}

TEST(Http, FormFieldsWinOverQueryOnCollision) {
  Request req;
  req.method = "POST";
  req.target = "/x?a=query";
  req.headers["content-type"] = "application/x-www-form-urlencoded";
  req.body = "a=form";
  EXPECT_EQ(get_or(req.all_params(), "a"), "form");
}

TEST(Http, ResponseRoundTrip) {
  Response resp = Response::ok_html("<html>hi</html>");
  const Response back = parse_response(to_wire(resp));
  EXPECT_EQ(back.status, 200);
  EXPECT_EQ(back.content_type, "text/html");
  EXPECT_EQ(back.body, "<html>hi</html>");
}

TEST(Http, MethodNotAllowedNamesTheAllowedMethods) {
  const Response r = Response::method_not_allowed("GET, POST");
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(r.headers.at("allow"), "GET, POST");
  EXPECT_EQ(status_text(405), "Method Not Allowed");
  const std::string wire = to_wire(r);
  EXPECT_EQ(wire.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u) << wire;
  EXPECT_NE(wire.find("\r\nallow: GET, POST\r\n"), std::string::npos) << wire;
}

TEST(Http, StatusHelpers) {
  EXPECT_EQ(Response::not_found("x").status, 404);
  EXPECT_EQ(Response::bad_request("y").status, 400);
  EXPECT_EQ(Response::server_error("z").status, 500);
  EXPECT_EQ(Response::redirect("/menu").status, 302);
  EXPECT_EQ(Response::redirect("/menu").headers.at("location"), "/menu");
  EXPECT_EQ(status_text(200), "OK");
  EXPECT_EQ(status_text(403), "Forbidden");
}

TEST(Http, HeaderNamesCaseInsensitive) {
  const Request r = parse_request(
      "GET / HTTP/1.0\r\nContent-Length: 2\r\nX-Custom: Value\r\n\r\nab");
  EXPECT_EQ(r.headers.at("content-length"), "2");
  EXPECT_EQ(r.headers.at("x-custom"), "Value");
  EXPECT_EQ(r.body, "ab");
}

TEST(Http, ParseErrors) {
  EXPECT_THROW(parse_request("GET /"), HttpError);             // truncated
  EXPECT_THROW(parse_request("\r\n\r\n"), HttpError);          // no method
  EXPECT_THROW(parse_request("GET / HTTP/1.0\r\nbad\r\n\r\n"),
               HttpError);                                     // bad header
  EXPECT_THROW(
      parse_request("GET / HTTP/1.0\r\ncontent-length: 10\r\n\r\nabc"),
      HttpError);                                              // short body
  EXPECT_THROW(
      parse_request("GET / HTTP/1.0\r\ncontent-length: zebra\r\n\r\n"),
      HttpError);
  EXPECT_THROW(parse_response("HTTP/1.0 weird\r\n\r\n"), HttpError);
}

TEST(Http, MessageSizeFraming) {
  const std::string wire =
      "POST /x HTTP/1.0\r\ncontent-length: 4\r\n\r\nbodyEXTRA";
  EXPECT_FALSE(message_size("POST /x HTTP/1.0\r\ncontent").has_value());
  EXPECT_FALSE(
      message_size("POST /x HTTP/1.0\r\ncontent-length: 4\r\n\r\nbo")
          .has_value());
  const auto size = message_size(wire);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(wire.substr(0, *size).back(), 'y');
}

TEST(Html, EscapeAllSpecials) {
  EXPECT_EQ(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
}

TEST(Html, LinkEncodesQueryAndEscapesText) {
  const std::string l =
      link("/model", {{"name", "a b"}, {"user", "d&l"}}, "<open>");
  EXPECT_NE(l.find("name=a+b"), std::string::npos);
  EXPECT_NE(l.find("user=d%26l"), std::string::npos);
  EXPECT_NE(l.find("&lt;open&gt;"), std::string::npos);
}

TEST(Html, PageStructure) {
  HtmlPage page("Title & Co");
  page.heading("Head<ing>", 3).paragraph("para").rule().raw("<b>raw</b>");
  const std::string s = page.str();
  EXPECT_NE(s.find("<title>Title &amp; Co</title>"), std::string::npos);
  EXPECT_NE(s.find("<h3>Head&lt;ing&gt;</h3>"), std::string::npos);
  EXPECT_NE(s.find("<b>raw</b>"), std::string::npos);
}

TEST(Html, TableEscapesCellsButKeepsRawCells) {
  HtmlTable t;
  t.header({"Col<1>"});
  t.row({"a&b"});
  t.row({HtmlTable::raw_cell("<a href=\"x\">link</a>")});
  const std::string s = t.str();
  EXPECT_NE(s.find("<th>Col&lt;1&gt;</th>"), std::string::npos);
  EXPECT_NE(s.find("<td>a&amp;b</td>"), std::string::npos);
  EXPECT_NE(s.find("<td><a href=\"x\">link</a></td>"), std::string::npos);
}

TEST(Html, FormFields) {
  HtmlForm f("/design/play", "POST");
  f.hidden("user", "dl").text_field("Supply", "g_vdd", "1.5").submit("PLAY");
  const std::string s = f.str();
  EXPECT_NE(s.find("action=\"/design/play\""), std::string::npos);
  EXPECT_NE(s.find("name=\"g_vdd\""), std::string::npos);
  EXPECT_NE(s.find("value=\"1.5\""), std::string::npos);
  EXPECT_NE(s.find("type=\"submit\""), std::string::npos);
}

}  // namespace
}  // namespace powerplay::web
