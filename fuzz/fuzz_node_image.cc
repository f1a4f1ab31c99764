// Fuzz harness for the node-image decoder (src/xml/node_image.cc), the
// native store's read path on every cold document access.
//
// Property checked beyond "no crash / no sanitizer report": DecodeImage
// either rejects an input with kCorruption (leaving the order table
// empty) or returns a tree whose order table maps every pre-order id to
// its node and whose own image decodes to an equal tree and re-encodes
// byte for byte. A violation means the encoder and decoder disagree about
// the format, which would corrupt documents through a store/reload cycle.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node_image.h"

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "node image fuzz: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using xbench::xml::DecodeImage;
  using xbench::xml::EncodeImage;
  using xbench::xml::Node;
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  std::vector<const Node*> by_order;
  auto doc = DecodeImage(input, "fuzz", &by_order);
  if (!doc.ok()) {
    if (doc.status().code() != xbench::StatusCode::kCorruption) {
      Fail("rejection is not kCorruption");
    }
    if (!by_order.empty()) Fail("order table left filled after a rejection");
    return 0;
  }
  if (by_order.size() != doc->NodeCount() + 1) Fail("order table size");
  doc->root()->Visit([&](const Node& node) {
    if (node.order() >= by_order.size() || by_order[node.order()] != &node) {
      Fail("order table does not map a node to itself");
    }
  });
  const std::string image = EncodeImage(*doc->root());
  auto again = DecodeImage(image, "fuzz-again");
  if (!again.ok()) {
    std::fprintf(stderr, "node image fuzz: re-encoded image rejected: %s\n",
                 again.status().ToString().c_str());
    std::abort();
  }
  if (!again->root()->StructurallyEquals(*doc->root())) {
    Fail("re-encoded image decodes to a different tree");
  }
  if (EncodeImage(*again->root()) != image) {
    Fail("encode/decode is not a fixed point");
  }
  return 0;
}
