#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "xml/node.h"
#include "xml/node_image.h"
#include "xml/parser.h"
#include "xml/schema_summary.h"
#include "xml/serializer.h"

namespace xbench::xml {
namespace {

// --- Node model ------------------------------------------------------------

TEST(NodeTest, BuildTree) {
  auto root = Node::Element("a");
  Node* b = root->AddElement("b");
  b->AddText("hello");
  root->SetAttribute("id", "1");

  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(root->name(), "a");
  ASSERT_NE(root->FindAttribute("id"), nullptr);
  EXPECT_EQ(*root->FindAttribute("id"), "1");
  EXPECT_EQ(root->FindAttribute("nope"), nullptr);
  EXPECT_EQ(root->FirstChild("b"), b);
  EXPECT_EQ(b->parent(), root.get());
  EXPECT_EQ(root->TextContent(), "hello");
}

TEST(NodeTest, AddSimpleAndChildren) {
  auto root = Node::Element("r");
  root->AddSimple("x", "1");
  root->AddSimple("y", "2");
  root->AddSimple("x", "3");
  EXPECT_EQ(root->Children("x").size(), 2u);
  EXPECT_EQ(root->ChildElements().size(), 3u);
  EXPECT_EQ(root->FirstChild("y")->TextContent(), "2");
}

TEST(NodeTest, SubtreeSizeCountsAllNodes) {
  auto root = Node::Element("r");
  root->AddSimple("a", "t");  // element + text
  root->AddElement("b");
  EXPECT_EQ(root->SubtreeSize(), 4u);
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  auto root = Node::Element("r");
  root->SetAttribute("k", "v");
  root->AddSimple("c", "text");
  auto copy = root->Clone();
  EXPECT_TRUE(root->StructurallyEquals(*copy));
  copy->SetAttribute("k", "other");
  EXPECT_FALSE(root->StructurallyEquals(*copy));
}

TEST(NodeTest, SetAttributeOverwrites) {
  auto root = Node::Element("r");
  root->SetAttribute("a", "1");
  root->SetAttribute("a", "2");
  EXPECT_EQ(root->attributes().size(), 1u);
  EXPECT_EQ(*root->FindAttribute("a"), "2");
}

TEST(DocumentTest, AssignOrderIsPreorder) {
  auto root = Node::Element("r");
  Node* a = root->AddElement("a");
  Node* aa = a->AddElement("aa");
  Node* b = root->AddElement("b");
  Document doc("d.xml", std::move(root));
  EXPECT_EQ(doc.root()->order(), 1u);
  EXPECT_EQ(a->order(), 2u);
  EXPECT_EQ(aa->order(), 3u);
  EXPECT_EQ(b->order(), 4u);
}

// --- Parser -----------------------------------------------------------------

TEST(ParserTest, ParsesSimpleDocument) {
  auto doc = Parse("<a><b>hi</b></a>", "t.xml");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->name(), "a");
  EXPECT_EQ(doc->root()->FirstChild("b")->TextContent(), "hi");
}

TEST(ParserTest, ParsesAttributes) {
  auto doc = Parse(R"(<a x="1" y='two'/>)", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->FindAttribute("x"), "1");
  EXPECT_EQ(*doc->root()->FindAttribute("y"), "two");
}

TEST(ParserTest, DecodesEntities) {
  auto doc = Parse("<a>&lt;&gt;&amp;&apos;&quot;&#65;</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<>&'\"A");
}

TEST(ParserTest, DecodesHexCharRef) {
  auto doc = Parse("<a>&#x41;&#x e9;</a>", "t.xml");
  // Malformed hex with space is an unknown entity -> error; test clean one.
  auto good = Parse("<a>&#x41;</a>", "t.xml");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->root()->TextContent(), "A");
  (void)doc;
}

TEST(ParserTest, SkipsPrologCommentsAndPis) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!-- c --><!DOCTYPE a [<!ELEMENT a ANY>]>"
      "<a><?pi data?><!-- inner -->x</a>",
      "t.xml");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(), "x");
}

TEST(ParserTest, CdataIsVerbatim) {
  auto doc = Parse("<a><![CDATA[<not><markup>&amp;]]></a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<not><markup>&amp;");
}

TEST(ParserTest, StripsIndentationWhitespace) {
  auto doc = Parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 2u);
}

TEST(ParserTest, PreservesMixedContent) {
  auto doc = Parse("<a>before <b>mid</b> after</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "before mid after");
  EXPECT_EQ(doc->root()->children().size(), 3u);
}

TEST(ParserTest, RejectsMismatchedTags) {
  auto doc = Parse("<a><b></a></b>", "t.xml");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kCorruption);
}

TEST(ParserTest, RejectsUnterminatedElement) {
  EXPECT_FALSE(Parse("<a><b>", "t.xml").ok());
}

TEST(ParserTest, RejectsDuplicateAttributes) {
  EXPECT_FALSE(Parse(R"(<a x="1" x="2"/>)", "t.xml").ok());
}

TEST(ParserTest, RejectsContentAfterRoot) {
  EXPECT_FALSE(Parse("<a/><b/>", "t.xml").ok());
}

TEST(ParserTest, RejectsUnknownEntity) {
  EXPECT_FALSE(Parse("<a>&unknown;</a>", "t.xml").ok());
}

TEST(ParserTest, ErrorsIncludeLocation) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>", "t.xml");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParserTest, CheckWellFormedMatchesParse) {
  EXPECT_TRUE(CheckWellFormed("<a><b/>text</a>").ok());
  EXPECT_FALSE(CheckWellFormed("<a><b/>").ok());
}

// --- Serializer --------------------------------------------------------------

TEST(SerializerTest, EscapesSpecialCharacters) {
  auto root = Node::Element("a");
  root->SetAttribute("q", "x\"<y");
  root->AddText("1 < 2 & 3 > 2");
  std::string out = Serialize(*root);
  EXPECT_EQ(out, "<a q=\"x&quot;&lt;y\">1 &lt; 2 &amp; 3 &gt; 2</a>");
}

TEST(SerializerTest, EmptyElementUsesSelfClosing) {
  auto root = Node::Element("empty");
  EXPECT_EQ(Serialize(*root), "<empty/>");
}

TEST(SerializerTest, RoundTripCompact) {
  const std::string text =
      R"(<order id="O1"><total>9.50</total><lines><line no="1">a &amp; b</line><line no="2"/></lines></order>)";
  auto doc = Parse(text, "t.xml");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Serialize(*doc), text);
}

TEST(SerializerTest, ParseSerializeParseIsStable) {
  auto doc = Parse("<a>mixed <b>content</b> here</a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  std::string once = Serialize(*doc);
  auto doc2 = Parse(once, "t.xml");
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(doc->root()->StructurallyEquals(*doc2->root()));
  EXPECT_EQ(once, Serialize(*doc2));
}

TEST(SerializerTest, IndentedOutputReparsesEquivalently) {
  auto doc = Parse("<a><b><c>x</c></b><d/></a>", "t.xml");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.indent = true;
  auto doc2 = Parse(Serialize(*doc, options), "t.xml");
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(doc->root()->StructurallyEquals(*doc2->root()));
}

// --- SchemaSummary -----------------------------------------------------------

TEST(SchemaSummaryTest, ComputesOccurrenceBounds) {
  SchemaSummary summary;
  auto d1 = Parse("<r><a/><a/><b/></r>", "1.xml");
  auto d2 = Parse("<r><a/></r>", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);

  auto children = summary.ChildrenOf("r");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].name, "a");
  EXPECT_EQ(children[0].min_occurs, 1);
  EXPECT_EQ(children[0].max_occurs, 2);
  EXPECT_EQ(children[1].name, "b");
  EXPECT_EQ(children[1].min_occurs, 0);  // absent in d2
  EXPECT_EQ(children[1].max_occurs, 1);
}

TEST(SchemaSummaryTest, TracksAttributesAndDepth) {
  SchemaSummary summary;
  auto doc = Parse(R"(<r id="1"><a k="x"><deep/></a></r>)", "1.xml");
  summary.AddDocument(*doc);
  EXPECT_EQ(summary.max_depth(), 3);
  auto attrs = summary.AttributesOf("a");
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0], "k");
}

TEST(SchemaSummaryTest, RendersTreeWithMarkers) {
  SchemaSummary summary;
  auto d1 = Parse("<r><a/><a/></r>", "1.xml");
  auto d2 = Parse("<r/>", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);
  std::string tree = summary.ToTree();
  EXPECT_NE(tree.find("r"), std::string::npos);
  EXPECT_NE(tree.find("? * a"), std::string::npos) << tree;
}

TEST(SchemaSummaryTest, EmitsDtd) {
  SchemaSummary summary;
  auto d1 = Parse(R"(<r id="1"><a>text</a><a>more</a><b/></r>)", "1.xml");
  auto d2 = Parse(R"(<r><a>x</a></r>)", "2.xml");
  summary.AddDocument(*d1);
  summary.AddDocument(*d2);
  std::string dtd = summary.ToDtd();
  // r comes first (root), children ordered with occurrence markers:
  // a appears 1..2 times -> a+; b is optional -> b?.
  EXPECT_NE(dtd.find("<!ELEMENT r (a+, b?)>"), std::string::npos) << dtd;
  EXPECT_NE(dtd.find("<!ELEMENT a (#PCDATA)>"), std::string::npos) << dtd;
  EXPECT_NE(dtd.find("<!ELEMENT b EMPTY>"), std::string::npos) << dtd;
  // id appears on 1 of 2 r instances -> #IMPLIED.
  EXPECT_NE(dtd.find("<!ATTLIST r id CDATA #IMPLIED>"), std::string::npos)
      << dtd;
}

TEST(SchemaSummaryTest, DtdMixedContentAndRequiredAttrs) {
  SchemaSummary summary;
  auto doc = Parse(R"(<q k="1">text <em>word</em> tail</q>)", "1.xml");
  summary.AddDocument(*doc);
  std::string dtd = summary.ToDtd();
  EXPECT_NE(dtd.find("<!ELEMENT q (#PCDATA | em)*>"), std::string::npos)
      << dtd;
  EXPECT_NE(dtd.find("<!ATTLIST q k CDATA #REQUIRED>"), std::string::npos)
      << dtd;
}

TEST(SchemaSummaryTest, HandlesRecursiveTypes) {
  SchemaSummary summary;
  auto doc = Parse("<sec><sec><sec/></sec></sec>", "1.xml");
  summary.AddDocument(*doc);
  // Must terminate and include the type once.
  std::string tree = summary.ToTree();
  EXPECT_NE(tree.find("sec"), std::string::npos);
}

// --- Parser hardening (fuzz regressions) -----------------------------------

TEST(ParserHardeningTest, RejectsExcessiveElementDepth) {
  std::string open, close;
  for (int i = 0; i < 300; ++i) {
    open += "<a>";
    close += "</a>";
  }
  auto doc = Parse(open + "x" + close, "deep.xml");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("nesting"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParserHardeningTest, AcceptsDepthUnderTheLimit) {
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<a>";
    close += "</a>";
  }
  EXPECT_TRUE(Parse(open + "x" + close, "ok.xml").ok());
}

TEST(ParserHardeningTest, RejectsMalformedCharacterReferences) {
  // Empty, junk-suffixed, overflowing, non-BMP, digitless-hex, and NUL
  // references must all be Status errors, never UB or silent truncation.
  EXPECT_FALSE(Parse("<a>&#;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#12junk;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#99999999999999999999;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#x1F600;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#x;</a>", "t.xml").ok());
  EXPECT_FALSE(Parse("<a>&#0;</a>", "t.xml").ok());
}

TEST(ParserHardeningTest, CheckWellFormedAgreesWithParseOnHardInputs) {
  const char* inputs[] = {
      "<a>&#;</a>", "<root><child attr=\"v", "<root/><!-- never closed",
      "<a>&#x41;</a>",
  };
  for (const char* input : inputs) {
    EXPECT_EQ(Parse(input, "t.xml").ok(), CheckWellFormed(input).ok())
        << input;
  }
}

// --- Node image ------------------------------------------------------------

std::string Nested(int depth) {
  std::string open, close;
  for (int i = 0; i < depth; ++i) {
    open += "<a>";
    close += "</a>";
  }
  return open + "x" + close;
}

// Decodes `doc`'s image and checks it rebuilds the same tree: equal
// structure and serialization, the same pre-order ids, consistent parent
// links, and an order -> node table covering every node.
void ExpectImageRoundTrip(const Document& doc) {
  const std::string image = EncodeImage(*doc.root());
  std::vector<const Node*> by_order;
  auto decoded = DecodeImage(image, doc.name(), &by_order);
  ASSERT_TRUE(decoded.ok()) << doc.name() << ": " << decoded.status().ToString();
  EXPECT_EQ(decoded->name(), doc.name());
  ASSERT_TRUE(decoded->root()->StructurallyEquals(*doc.root())) << doc.name();
  EXPECT_EQ(Serialize(*decoded), Serialize(doc)) << doc.name();
  std::vector<uint32_t> want;
  doc.root()->Visit([&](const Node& node) { want.push_back(node.order()); });
  std::vector<uint32_t> got;
  EXPECT_EQ(decoded->root()->parent(), nullptr);
  decoded->root()->Visit([&](const Node& node) {
    got.push_back(node.order());
    for (const auto& child : node.children()) {
      EXPECT_EQ(child->parent(), &node);
    }
  });
  EXPECT_EQ(got, want) << doc.name();
  ASSERT_EQ(by_order.size(), doc.NodeCount() + 1) << doc.name();
  EXPECT_EQ(by_order[0], nullptr);
  decoded->root()->Visit(
      [&](const Node& node) { EXPECT_EQ(by_order[node.order()], &node); });
}

TEST(NodeImageTest, RoundTripsEveryClassAtSmallScale) {
  datagen::GenConfig config;
  config.target_bytes = 48 << 10;
  config.seed = 42;
  for (datagen::DbClass cls :
       {datagen::DbClass::kTcSd, datagen::DbClass::kTcMd,
        datagen::DbClass::kDcSd, datagen::DbClass::kDcMd}) {
    const datagen::GeneratedDatabase db = datagen::Generate(cls, config);
    ASSERT_FALSE(db.documents.empty());
    size_t text_bytes = 0;
    size_t image_bytes = 0;
    for (const auto& generated : db.documents) {
      auto doc = Parse(generated.text, generated.name);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      ExpectImageRoundTrip(*doc);
      text_bytes += generated.text.size();
      image_bytes += EncodeImage(*doc->root()).size();
    }
    // The image drops markup and entity syntax, so it is never larger than
    // the text it replaces.
    EXPECT_LT(image_bytes, text_bytes) << datagen::DbClassName(cls);
  }
}

TEST(NodeImageTest, RoundTripsHandWrittenDocuments) {
  const std::pair<const char*, std::string> cases[] = {
      {"attributes.xml", R"(<r id="1" lang='en'><c k="v" e=""/></r>)"},
      {"entities.xml", "<r a=\"&lt;&amp;&quot;\">&lt;x&gt; &amp; &#233;"
                       "&#x4E2D;&apos;</r>"},
      {"cdata.xml", "<r><![CDATA[<not> & markup]]> tail</r>"},
      {"mixed.xml", "<p>one <b>two</b> three <i>four</i><br/>five</p>"},
      {"empty.xml", "<r><e/><e></e><f a=\"\"/></r>"},
      {"whitespace.xml", "<r><a>   </a><b>\n\t</b> <c/> </r>"},
      {"deep.xml", Nested(kMaxElementDepth)},
      {"long_text.xml", "<r>" + std::string(300, 'y') + "</r>"},
  };
  for (const auto& [name, text] : cases) {
    for (bool strip : {true, false}) {
      ParseOptions options;
      options.strip_insignificant_whitespace = strip;
      auto doc = Parse(text, name, options);
      ASSERT_TRUE(doc.ok()) << name << ": " << doc.status().ToString();
      ExpectImageRoundTrip(*doc);
    }
  }
}

TEST(NodeImageTest, RejectsNestingBeyondTheParserLimit) {
  auto root = Node::Element("a");
  Node* leaf = root.get();
  for (int i = 1; i <= kMaxElementDepth; ++i) leaf = leaf->AddElement("a");
  auto decoded = DecodeImage(EncodeImage(*root), "deep.xml");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().message().find("nesting"), std::string::npos)
      << decoded.status().ToString();
}

TEST(NodeImageTest, RejectsEveryTruncation) {
  auto doc = Parse(R"(<r id="7"><a>text</a><b x="y"/>tail</r>)", "t.xml");
  ASSERT_TRUE(doc.ok());
  const std::string image = EncodeImage(*doc->root());
  for (size_t size = 0; size < image.size(); ++size) {
    std::vector<const Node*> by_order;
    auto decoded = DecodeImage(image.substr(0, size), "t.xml", &by_order);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << size << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_TRUE(by_order.empty());
  }
  EXPECT_FALSE(DecodeImage(image + "!", "t.xml").ok());
}

TEST(NodeImageTest, BitFlipsDecodeOrFailCleanly) {
  auto doc = Parse(R"(<r id="7"><a>text</a><b x="y"/>tail</r>)", "t.xml");
  ASSERT_TRUE(doc.ok());
  const std::string image = EncodeImage(*doc->root());
  size_t rejected = 0;
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto decoded = DecodeImage(flipped, "t.xml");
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
        ++rejected;
        continue;
      }
      // A flip inside a string still yields a well-formed tree, which
      // must survive another round trip.
      ExpectImageRoundTrip(*decoded);
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(NodeImageTest, RejectsCountsLargerThanTheImage) {
  // Version 1, one node, one name "a", then an element whose attribute
  // count claims 2^32 - 1 entries: rejected before anything is reserved.
  const std::string huge_attrs("\x01\x01\x01\x01" "a" "\x00\x00"
                               "\xff\xff\xff\xff\x0f", 12);
  EXPECT_EQ(DecodeImage(huge_attrs, "t.xml").status().code(),
            StatusCode::kCorruption);
  // Element name id 5 with a one-entry name table.
  const std::string bad_id("\x01\x01\x01\x01" "a" "\x00\x05\x00\x00", 9);
  EXPECT_EQ(DecodeImage(bad_id, "t.xml").status().code(),
            StatusCode::kCorruption);
  // Wrong version byte.
  const std::string bad_version("\x02\x01\x01\x01" "a" "\x00\x00\x00\x00", 9);
  EXPECT_EQ(DecodeImage(bad_version, "t.xml").status().code(),
            StatusCode::kCorruption);
  // The same bytes with the right version decode to <a/>.
  std::string good = bad_version;
  good[0] = static_cast<char>(kNodeImageVersion);
  auto decoded = DecodeImage(good, "t.xml");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Serialize(*decoded), "<a/>");
}

}  // namespace
}  // namespace xbench::xml
