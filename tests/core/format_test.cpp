// Tests of the per-sector-metadata encryption engine: geometry of the three
// layouts (Fig. 2), roundtrips, security properties (random IV hides
// overwrite locality; deterministic baseline leaks it), integrity variants,
// replay defense.
#include "core/format.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace vde::core {
namespace {

using objstore::OsdOp;
using objstore::ReadResult;
using objstore::Transaction;

constexpr uint64_t kObjectSize = 4ull << 20;

Bytes TestKey() {
  Rng rng(0xCAFE);
  return rng.RandomBytes(64);
}

ObjectExtent MakeExtent(uint64_t first_block, size_t count,
                        uint64_t image_block) {
  ObjectExtent ext;
  ext.oid = "rbd_data.test.0000000000000000";
  ext.object_no = 0;
  ext.first_block = first_block;
  ext.block_count = count;
  ext.image_block = image_block;
  return ext;
}

// Applies write ops to an in-memory object model + omap, then serves reads —
// a micro object store for format-level tests.
struct FakeObject {
  Bytes data = Bytes(kObjectSize + (1 << 20), 0);
  std::map<Bytes, Bytes> omap;

  void ApplyWrite(const Transaction& txn) {
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kWrite) {
        std::copy(op.data.begin(), op.data.end(),
                  data.begin() + static_cast<long>(op.offset));
      } else if (op.type == OsdOp::Type::kOmapSet) {
        for (const auto& [k, v] : op.omap_kvs) omap[k] = v;
      }
    }
  }

  ReadResult ServeRead(const Transaction& txn) const {
    ReadResult result;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kRead) {
        result.data.insert(result.data.end(),
                           data.begin() + static_cast<long>(op.offset),
                           data.begin() +
                               static_cast<long>(op.offset + op.length));
      } else if (op.type == OsdOp::Type::kOmapGetRange) {
        for (auto it = omap.lower_bound(op.omap_start);
             it != omap.end() && (op.omap_end.empty() || it->first < op.omap_end);
             ++it) {
          result.omap_values.emplace_back(it->first, it->second);
        }
      }
    }
    return result;
  }
};

EncryptionSpec RandomIvSpec(IvLayout layout,
                            Integrity integrity = Integrity::kNone,
                            CipherMode mode = CipherMode::kXtsRandom) {
  EncryptionSpec spec;
  spec.mode = mode;
  spec.layout = layout;
  spec.integrity = integrity;
  spec.iv_seed = 42;
  return spec;
}

// --- Parameterized roundtrip across every spec the paper discusses ---

class FormatRoundtrip : public ::testing::TestWithParam<EncryptionSpec> {};

TEST_P(FormatRoundtrip, WriteReadRoundtrip) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(1);
  FakeObject obj;

  for (const size_t nblocks : {size_t{1}, size_t{3}, size_t{8}}) {
    const uint64_t first = rng.NextBelow(64);
    const Bytes plain = rng.RandomBytes(nblocks * kBlockSize);
    const auto ext = MakeExtent(first, nblocks, 1000 + first);

    Transaction wr;
    ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
    obj.ApplyWrite(wr);

    Transaction rd;
    format->MakeRead(ext, rd);
    const ReadResult result = obj.ServeRead(rd);
    Bytes out(plain.size());
    ASSERT_TRUE(format->FinishRead(ext, result, out).ok());
    ASSERT_EQ(out, plain) << spec.Name() << " nblocks=" << nblocks;
    if (spec.mode != CipherMode::kNone) {
      // Ciphertext must differ from plaintext on the wire.
      ASSERT_NE(wr.ops[0].data, plain);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, FormatRoundtrip,
    ::testing::Values(
        EncryptionSpec{},  // luks2 baseline (xts-lba)
        EncryptionSpec{CipherMode::kNone, IvLayout::kNone},
        EncryptionSpec{CipherMode::kXtsEssiv, IvLayout::kNone},
        EncryptionSpec{CipherMode::kWideLba, IvLayout::kNone},
        RandomIvSpec(IvLayout::kUnaligned),
        RandomIvSpec(IvLayout::kObjectEnd),
        RandomIvSpec(IvLayout::kOmap),
        RandomIvSpec(IvLayout::kUnaligned, Integrity::kHmac),
        RandomIvSpec(IvLayout::kObjectEnd, Integrity::kHmac),
        RandomIvSpec(IvLayout::kOmap, Integrity::kHmac),
        RandomIvSpec(IvLayout::kObjectEnd, Integrity::kNone,
                     CipherMode::kGcmRandom),
        RandomIvSpec(IvLayout::kOmap, Integrity::kNone,
                     CipherMode::kGcmRandom)),
    [](const auto& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (c == '/' || c == '-' || c == '+') c = '_';
      }
      return name;
    });

// --- Geometry (Fig. 2) ---

TEST(FormatGeometry, UnalignedInterleavesAtStride) {
  auto format = MakeFormat(RandomIvSpec(IvLayout::kUnaligned), TestKey(),
                           kObjectSize);
  Rng rng(2);
  Transaction txn;
  const auto ext = MakeExtent(5, 2, 5);
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(2 * kBlockSize), txn).ok());
  ASSERT_EQ(txn.ops.size(), 1u);
  EXPECT_EQ(txn.ops[0].offset, 5 * (kBlockSize + 16));
  EXPECT_EQ(txn.ops[0].data.size(), 2 * (kBlockSize + 16));
  // Every access is unaligned to device sectors (the paper's complaint).
  EXPECT_NE(txn.ops[0].offset % 4096, 0u);
}

TEST(FormatGeometry, ObjectEndPutsIvsAfterObject) {
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd), TestKey(),
                           kObjectSize);
  Rng rng(3);
  Transaction txn;
  const auto ext = MakeExtent(7, 3, 7);
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(3 * kBlockSize), txn).ok());
  ASSERT_EQ(txn.ops.size(), 2u);
  EXPECT_EQ(txn.ops[0].offset, 7u * kBlockSize);       // data unchanged
  EXPECT_EQ(txn.ops[1].offset, kObjectSize + 7 * 16);  // IVs at object end
  EXPECT_EQ(txn.ops[1].data.size(), 3u * 16);
}

TEST(FormatGeometry, OmapKeysAreBlockIndices) {
  auto format =
      MakeFormat(RandomIvSpec(IvLayout::kOmap), TestKey(), kObjectSize);
  Rng rng(4);
  Transaction txn;
  const auto ext = MakeExtent(9, 2, 9);
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(2 * kBlockSize), txn).ok());
  ASSERT_EQ(txn.ops.size(), 2u);
  ASSERT_EQ(txn.ops[1].omap_kvs.size(), 2u);
  Bytes key9(8), key10(8);
  StoreU64Be(key9.data(), 9);
  StoreU64Be(key10.data(), 10);
  EXPECT_EQ(txn.ops[1].omap_kvs[0].first, key9);
  EXPECT_EQ(txn.ops[1].omap_kvs[1].first, key10);
  EXPECT_EQ(txn.ops[1].omap_kvs[0].second.size(), 16u);
}

TEST(FormatGeometry, MetaPerBlockSizes) {
  EXPECT_EQ(EncryptionSpec{}.MetaPerBlock(), 0u);
  EXPECT_EQ(RandomIvSpec(IvLayout::kObjectEnd).MetaPerBlock(), 16u);
  EXPECT_EQ(RandomIvSpec(IvLayout::kObjectEnd, Integrity::kHmac).MetaPerBlock(),
            48u);
  EXPECT_EQ(RandomIvSpec(IvLayout::kObjectEnd, Integrity::kNone,
                         CipherMode::kGcmRandom)
                .MetaPerBlock(),
            28u);
}

// --- Security properties (the paper's motivation, §2.1/§2.2) ---

TEST(FormatSecurity, Luks2OverwriteLeaksChangedSubBlocks) {
  // Deterministic LBA tweak: an overwrite changing one 16-byte sub-block
  // yields identical ciphertext everywhere else — visible to the storage.
  EncryptionSpec spec;  // luks2 baseline
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  Rng rng(5);
  Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 77);

  Transaction w1, w2;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w1).ok());
  plain[100] ^= 0x5A;  // sub-block 6
  ASSERT_TRUE(format->MakeWrite(ext, plain, w2).ok());

  int changed_subblocks = 0;
  for (size_t sb = 0; sb < kBlockSize / 16; ++sb) {
    if (!std::equal(w1.ops[0].data.begin() + static_cast<long>(sb * 16),
                    w1.ops[0].data.begin() + static_cast<long>(sb * 16 + 16),
                    w2.ops[0].data.begin() + static_cast<long>(sb * 16))) {
      changed_subblocks++;
    }
  }
  EXPECT_EQ(changed_subblocks, 1) << "XTS leaks exactly the changed sub-block";
}

TEST(FormatSecurity, RandomIvOverwriteHidesLocality) {
  // The paper's fix: a fresh IV per overwrite re-randomizes everything.
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd), TestKey(),
                           kObjectSize);
  Rng rng(6);
  Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 77);

  Transaction w1, w2;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w1).ok());
  plain[100] ^= 0x5A;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w2).ok());

  int identical_subblocks = 0;
  for (size_t sb = 0; sb < kBlockSize / 16; ++sb) {
    if (std::equal(w1.ops[0].data.begin() + static_cast<long>(sb * 16),
                   w1.ops[0].data.begin() + static_cast<long>(sb * 16 + 16),
                   w2.ops[0].data.begin() + static_cast<long>(sb * 16))) {
      identical_subblocks++;
    }
  }
  EXPECT_EQ(identical_subblocks, 0);
}

TEST(FormatSecurity, RandomIvIdenticalOverwriteAlsoHidden) {
  // Even rewriting IDENTICAL data is indistinguishable (semantic security
  // under overwrite — impossible for any deterministic scheme).
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd), TestKey(),
                           kObjectSize);
  Rng rng(7);
  const Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 5);
  Transaction w1, w2;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w1).ok());
  ASSERT_TRUE(format->MakeWrite(ext, plain, w2).ok());
  EXPECT_NE(w1.ops[0].data, w2.ops[0].data);
}

TEST(FormatSecurity, SameDataDifferentLbaDiffers) {
  EncryptionSpec spec;  // baseline
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  Rng rng(8);
  const Bytes plain = rng.RandomBytes(kBlockSize);
  Transaction w1, w2;
  ASSERT_TRUE(format->MakeWrite(MakeExtent(0, 1, 100), plain, w1).ok());
  ASSERT_TRUE(format->MakeWrite(MakeExtent(0, 1, 200), plain, w2).ok());
  EXPECT_NE(w1.ops[0].data, w2.ops[0].data);
}

TEST(FormatSecurity, ReplayAtDifferentLbaDecryptsGarbage) {
  // The IV binds the address: moving (ciphertext, IV) to another LBA must
  // not reveal the plaintext (paper §2.2 replay defense).
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd), TestKey(),
                           kObjectSize);
  Rng rng(9);
  FakeObject obj;
  const Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext_a = MakeExtent(0, 1, 10);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext_a, plain, wr).ok());
  obj.ApplyWrite(wr);

  Transaction rd;
  format->MakeRead(ext_a, rd);
  const ReadResult result = obj.ServeRead(rd);

  // Same bytes presented as if they were block 11 (image_block differs).
  auto ext_b = MakeExtent(0, 1, 11);
  Bytes out(kBlockSize);
  ASSERT_TRUE(format->FinishRead(ext_b, result, out).ok());
  EXPECT_NE(out, plain);
}

TEST(FormatSecurity, HmacDetectsCiphertextTampering) {
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd, Integrity::kHmac),
                           TestKey(), kObjectSize);
  Rng rng(10);
  FakeObject obj;
  const Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 3);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
  obj.ApplyWrite(wr);
  obj.data[2000] ^= 0x01;  // flip a ciphertext bit

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  EXPECT_EQ(format->FinishRead(ext, obj.ServeRead(rd), out).code(),
            StatusCode::kCorruption);
}

TEST(FormatSecurity, HmacDetectsMixAndMatchForgery) {
  // The §2.1 splice attack MUST be caught once integrity is on.
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd, Integrity::kHmac),
                           TestKey(), kObjectSize);
  Rng rng(11);
  const auto ext = MakeExtent(0, 1, 3);
  Transaction w1, w2;
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(kBlockSize), w1).ok());
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(kBlockSize), w2).ok());
  FakeObject obj;
  obj.ApplyWrite(w1);
  // Forge: splice second half of v2's ciphertext into v1's (keep v1 IV+tag).
  std::copy(w2.ops[0].data.begin() + 2048, w2.ops[0].data.end(),
            obj.data.begin() + 2048);
  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  EXPECT_EQ(format->FinishRead(ext, obj.ServeRead(rd), out).code(),
            StatusCode::kCorruption);
}

TEST(FormatSecurity, GcmDetectsTampering) {
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd, Integrity::kNone,
                                        CipherMode::kGcmRandom),
                           TestKey(), kObjectSize);
  Rng rng(12);
  FakeObject obj;
  const auto ext = MakeExtent(0, 1, 4);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(kBlockSize), wr).ok());
  obj.ApplyWrite(wr);
  obj.data[123] ^= 0x80;
  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  EXPECT_EQ(format->FinishRead(ext, obj.ServeRead(rd), out).code(),
            StatusCode::kCorruption);
}

TEST(FormatSecurity, IvStreamNeverRepeats) {
  auto format = MakeFormat(RandomIvSpec(IvLayout::kObjectEnd), TestKey(),
                           kObjectSize);
  Rng rng(13);
  const Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 0);
  std::set<Bytes> ivs;
  for (int i = 0; i < 500; ++i) {
    Transaction wr;
    ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
    ivs.insert(wr.ops[1].data);  // the 16-byte IV
  }
  EXPECT_EQ(ivs.size(), 500u);
}

TEST(FormatSecurity, WideBlockDiffusesButDeterministic) {
  EncryptionSpec spec;
  spec.mode = CipherMode::kWideLba;
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  Rng rng(14);
  Bytes plain = rng.RandomBytes(kBlockSize);
  const auto ext = MakeExtent(0, 1, 9);
  Transaction w1, w2, w3;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w1).ok());
  ASSERT_TRUE(format->MakeWrite(ext, plain, w2).ok());
  EXPECT_EQ(w1.ops[0].data, w2.ops[0].data) << "wide-block is deterministic";
  plain[0] ^= 1;
  ASSERT_TRUE(format->MakeWrite(ext, plain, w3).ok());
  int identical = 0;
  for (size_t sb = 0; sb < kBlockSize / 16; ++sb) {
    if (std::equal(w1.ops[0].data.begin() + static_cast<long>(sb * 16),
                   w1.ops[0].data.begin() + static_cast<long>(sb * 16 + 16),
                   w3.ops[0].data.begin() + static_cast<long>(sb * 16))) {
      identical++;
    }
  }
  EXPECT_EQ(identical, 0) << "one flipped bit re-randomizes the whole sector";
}

TEST(FormatSecurity, OmapMissingIvRejected) {
  auto format =
      MakeFormat(RandomIvSpec(IvLayout::kOmap), TestKey(), kObjectSize);
  Rng rng(15);
  FakeObject obj;
  const auto ext = MakeExtent(0, 2, 0);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, rng.RandomBytes(2 * kBlockSize), wr).ok());
  obj.ApplyWrite(wr);
  obj.omap.erase(obj.omap.begin());  // lose one IV
  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(2 * kBlockSize);
  EXPECT_EQ(format->FinishRead(ext, obj.ServeRead(rd), out).code(),
            StatusCode::kCorruption);
}

// A cached or persisted metadata row of the wrong length (the IV cache
// installs any persisted row long enough to carry its stamp) must fail as
// corruption before any IV or tag slice reads past its end.
TEST(FormatSecurity, WrongLengthIvRowRejected) {
  const EncryptionSpec specs[] = {
      RandomIvSpec(IvLayout::kObjectEnd),
      RandomIvSpec(IvLayout::kObjectEnd, Integrity::kHmac),
      RandomIvSpec(IvLayout::kObjectEnd, Integrity::kNone,
                   CipherMode::kGcmRandom)};
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.Name());
    auto format = MakeFormat(spec, TestKey(), kObjectSize);
    Rng rng(16);
    const Bytes plain = rng.RandomBytes(kBlockSize);
    const auto ext = MakeExtent(0, 1, 5);
    Transaction wr;
    IvRows ivs;
    ASSERT_TRUE(format->MakeWrite(ext, plain, wr, &ivs).ok());
    ASSERT_EQ(ivs.size(), 1u);
    ASSERT_EQ(ivs[0].size(), spec.MetaPerBlock());
    ReadResult rd;
    rd.data = wr.ops[0].data;
    ASSERT_EQ(rd.data.size(), kBlockSize);

    Bytes out(kBlockSize);
    ASSERT_TRUE(format->FinishReadWithIvs(ext, rd, ivs, out).ok());
    EXPECT_EQ(out, plain);

    const Bytes full = ivs[0];
    for (const size_t len : {full.size() - 1, full.size() + 1}) {
      Bytes row = full;
      row.resize(len, 0x5a);
      EXPECT_EQ(format->FinishReadWithIvs(ext, rd, IvRows{row}, out).code(),
                StatusCode::kCorruption)
          << "row length " << len;
    }
  }
}

}  // namespace
}  // namespace vde::core
