#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/rng.h"

namespace vde::crypto {
namespace {

std::string DigestHex(ByteSpan data) {
  const auto d = Sha256::Digest(data);
  return ToHex(ByteSpan(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(DigestHex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(DigestHex(BytesOf("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      DigestHex(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  const auto d = h.Finish();
  EXPECT_EQ(ToHex(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtAllSplitPoints) {
  const Bytes data = BytesOf(
      "The quick brown fox jumps over the lazy dog, repeatedly, to stress "
      "block boundaries in the streaming interface. 0123456789");
  const std::string expect = DigestHex(data);
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(ByteSpan(data.data(), split));
    h.Update(ByteSpan(data.data() + split, data.size() - split));
    const auto d = h.Finish();
    ASSERT_EQ(ToHex(ByteSpan(d.data(), d.size())), expect) << "split=" << split;
  }
}

// Two live hashers fed in alternation, across block boundaries: each owns
// its context, and the once-fetched digest method they share is read-only.
TEST(Sha256, InterleavedObjectsStayIndependent) {
  const Bytes two_block =
      BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const Bytes as(1000, 'a');
  Sha256 h1;
  Sha256 h2;
  for (size_t i = 0; i < two_block.size(); ++i) {
    h1.Update(ByteSpan(two_block.data() + i, 1));
    for (int j = 0; j < 17; ++j) h2.Update(as);
  }
  for (size_t i = 0; i < 1000 - 17 * two_block.size(); ++i) h2.Update(as);
  const auto d1 = h1.Finish();
  const auto d2 = h2.Finish();
  EXPECT_EQ(ToHex(ByteSpan(d1.data(), d1.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(ToHex(ByteSpan(d2.data(), d2.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// A moved-to hasher carries on with the moved-from one's state.
TEST(Sha256, MoveKeepsState) {
  Sha256 a;
  a.Update(BytesOf("ab"));
  Sha256 b(std::move(a));
  b.Update(BytesOf("c"));
  Sha256 c;
  c = std::move(b);
  const auto d = c.Finish();
  EXPECT_EQ(ToHex(ByteSpan(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, LengthSensitivity) {
  // Messages around the 55/56-byte padding boundary must all hash distinctly.
  Rng rng(99);
  std::set<std::string> seen;
  for (size_t len = 50; len <= 70; ++len) {
    seen.insert(DigestHex(Bytes(len, 0x5a)));
  }
  EXPECT_EQ(seen.size(), 21u);
}

TEST(Sha256, DifferentInputsDifferentDigests) {
  Rng rng(123);
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(DigestHex(rng.RandomBytes(32)));
  }
  EXPECT_EQ(seen.size(), 200u);
}

}  // namespace
}  // namespace vde::crypto
