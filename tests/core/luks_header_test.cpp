#include "core/luks_header.h"

#include <gtest/gtest.h>

#include "crypto/rand.h"

namespace vde::core {
namespace {

LuksHeader::Params FastParams() {
  LuksHeader::Params p;
  p.pbkdf2_iterations = 10;  // fast for tests
  p.af_stripes = 8;
  return p;
}

TEST(LuksHeader, FormatAndUnlock) {
  crypto::Drbg rng(1);
  const Bytes key = rng.Generate(kMasterKeySize);
  const auto header = LuksHeader::Format(key, "secret", FastParams(), rng);
  auto unlocked = header.Unlock("secret");
  ASSERT_TRUE(unlocked.ok()) << unlocked.status().ToString();
  EXPECT_EQ(*unlocked, key);
}

TEST(LuksHeader, WrongPassphraseRejected) {
  crypto::Drbg rng(2);
  const Bytes key = rng.Generate(kMasterKeySize);
  const auto header = LuksHeader::Format(key, "secret", FastParams(), rng);
  auto unlocked = header.Unlock("wrong");
  EXPECT_EQ(unlocked.status().code(), StatusCode::kPermissionDenied);
}

TEST(LuksHeader, MultipleKeyslots) {
  crypto::Drbg rng(3);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "alice", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "bob", rng).ok());
  EXPECT_EQ(header.ActiveKeyslots(), 2u);
  EXPECT_TRUE(header.Unlock("alice").ok());
  EXPECT_TRUE(header.Unlock("bob").ok());
  EXPECT_EQ(*header.Unlock("bob"), key);
}

TEST(LuksHeader, AddKeyslotRequiresTrueMasterKey) {
  crypto::Drbg rng(4);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  const Bytes fake = rng.Generate(kMasterKeySize);
  EXPECT_EQ(header.AddKeyslot(fake, "evil", rng).code(),
            StatusCode::kPermissionDenied);
}

TEST(LuksHeader, RemoveKeyslotRevokesAccess) {
  crypto::Drbg rng(5);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "alice", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "bob", rng).ok());
  ASSERT_TRUE(header.RemoveKeyslot("alice").ok());
  EXPECT_EQ(header.ActiveKeyslots(), 1u);
  EXPECT_FALSE(header.Unlock("alice").ok());
  EXPECT_TRUE(header.Unlock("bob").ok());
}

TEST(LuksHeader, SerializeRoundtrip) {
  crypto::Drbg rng(6);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  ASSERT_TRUE(header.AddKeyslot(key, "pw2", rng).ok());
  const Bytes blob = header.Serialize();
  auto parsed = LuksHeader::Deserialize(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ActiveKeyslots(), 2u);
  auto unlocked = parsed->Unlock("pw2");
  ASSERT_TRUE(unlocked.ok());
  EXPECT_EQ(*unlocked, key);
}

TEST(LuksHeader, CorruptBlobRejected) {
  crypto::Drbg rng(7);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  Bytes blob = header.Serialize();
  Bytes corrupted = blob;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_FALSE(LuksHeader::Deserialize(corrupted).ok());
  const Bytes truncated(blob.begin(), blob.begin() + 20);
  EXPECT_FALSE(LuksHeader::Deserialize(truncated).ok());
}

// Field offsets in a serialized header: magic(4) pbkdf2_iterations(4)
// af_stripes(4) digest_salt(32) digest(32), then per slot active(1) and, for
// an active slot, salt(32) wrapped_len(4) wrapped.
constexpr size_t kIterationsOff = 4;
constexpr size_t kStripesOff = 8;
constexpr size_t kSlot0WrappedLenOff = 12 + 32 + 32 + 1 + 32;

// A one-slot header with FastParams (8 stripes), serialized.
Bytes FormattedBlob(uint64_t seed) {
  crypto::Drbg rng(seed);
  const Bytes key = rng.Generate(kMasterKeySize);
  return LuksHeader::Format(key, "pw", FastParams(), rng).Serialize();
}

StatusCode DeserializeCode(const Bytes& blob) {
  return LuksHeader::Deserialize(blob).status().code();
}

// Unlock divides by the stripe count: zero must not get that far.
TEST(LuksHeader, ZeroAfStripesRejected) {
  Bytes blob = FormattedBlob(9);
  ASSERT_EQ(DeserializeCode(blob), StatusCode::kOk);
  StoreU32Le(blob.data() + kStripesOff, 0);
  EXPECT_EQ(DeserializeCode(blob), StatusCode::kCorruption);
}

TEST(LuksHeader, ZeroPbkdf2IterationsRejected) {
  Bytes blob = FormattedBlob(10);
  StoreU32Le(blob.data() + kIterationsOff, 0);
  EXPECT_EQ(DeserializeCode(blob), StatusCode::kCorruption);
}

// The slot material must be exactly af_stripes * kMasterKeySize bytes:
// shorter (down to a final XTS unit under 16 bytes) or longer is refused,
// and so is a stripe count that disagrees with the material, including
// one whose product overflows the 32-bit length field.
TEST(LuksHeader, WrappedLengthMismatchRejected) {
  const Bytes blob = FormattedBlob(11);
  ASSERT_EQ(LoadU32Le(blob.data() + kSlot0WrappedLenOff),
            FastParams().af_stripes * kMasterKeySize);
  for (const uint32_t len : {0u, 15u, 8u * 64 - 1, 8u * 64 + 1}) {
    Bytes bad = blob;
    StoreU32Le(bad.data() + kSlot0WrappedLenOff, len);
    EXPECT_EQ(DeserializeCode(bad), StatusCode::kCorruption) << "len " << len;
  }
  for (const uint32_t stripes : {7u, 9u, 0x04000000u, 0xFFFFFFFFu}) {
    Bytes bad = blob;
    StoreU32Le(bad.data() + kStripesOff, stripes);
    EXPECT_EQ(DeserializeCode(bad), StatusCode::kCorruption)
        << "stripes " << stripes;
  }
}

TEST(LuksHeader, SlotMaterialDoesNotLeakKey) {
  crypto::Drbg rng(8);
  const Bytes key = rng.Generate(kMasterKeySize);
  auto header = LuksHeader::Format(key, "pw", FastParams(), rng);
  const Bytes blob = header.Serialize();
  // The master key must not appear anywhere in the serialized header.
  EXPECT_EQ(std::search(blob.begin(), blob.end(), key.begin(), key.end()),
            blob.end());
}

}  // namespace
}  // namespace vde::core
