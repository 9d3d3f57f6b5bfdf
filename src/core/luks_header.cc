#include "core/luks_header.h"

#include <cassert>

#include "crypto/afsplit.h"
#include "crypto/hmac.h"
#include "crypto/xts.h"

namespace vde::core {

namespace {

constexpr uint32_t kHeaderMagic = 0x4C554B53;  // "LUKS"
constexpr size_t kSaltSize = 32;
constexpr size_t kDigestSize = 32;

// Slot key -> XTS key for wrapping the AF-split material.
Bytes DeriveSlotKey(const std::string& passphrase, ByteSpan salt,
                    uint32_t iterations) {
  Bytes key(64);  // AES-256-XTS
  crypto::Pbkdf2HmacSha256(BytesOf(passphrase), salt, iterations, key);
  return key;
}

Bytes ComputeDigest(ByteSpan master_key, ByteSpan salt, uint32_t iterations) {
  Bytes digest(kDigestSize);
  crypto::Pbkdf2HmacSha256(master_key, salt, iterations, digest);
  return digest;
}

// Encrypt/decrypt AF-split material sector-by-sector with the slot key.
void CryptSplitMaterial(ByteSpan key, ByteSpan in, MutByteSpan out,
                        bool encrypt) {
  crypto::XtsCipher xts(key);
  const size_t unit = 4096;
  size_t off = 0;
  uint64_t sector = 0;
  while (off < in.size()) {
    const size_t take = std::min(unit, in.size() - off);
    uint8_t tweak[16] = {};
    StoreU64Le(tweak, sector++);
    if (encrypt) {
      xts.Encrypt(ByteSpan(tweak, 16), in.subspan(off, take),
                  out.subspan(off, take));
    } else {
      xts.Decrypt(ByteSpan(tweak, 16), in.subspan(off, take),
                  out.subspan(off, take));
    }
    off += take;
  }
}

}  // namespace

LuksHeader LuksHeader::Format(ByteSpan master_key,
                              const std::string& passphrase,
                              const Params& params, crypto::Drbg& rng) {
  assert(master_key.size() == kMasterKeySize);
  LuksHeader header;
  header.params_ = params;
  header.digest_salt_ = rng.Generate(kSaltSize);
  header.digest_ =
      ComputeDigest(master_key, header.digest_salt_, params.pbkdf2_iterations);
  Status s = header.AddKeyslot(master_key, passphrase, rng);
  assert(s.ok());
  (void)s;
  return header;
}

Status LuksHeader::AddKeyslot(ByteSpan master_key,
                              const std::string& passphrase,
                              crypto::Drbg& rng) {
  // Verify the caller holds the true master key.
  if (!ConstantTimeEqual(
          ComputeDigest(master_key, digest_salt_, params_.pbkdf2_iterations),
          digest_)) {
    return Status::PermissionDenied("master key does not match digest");
  }
  for (auto& slot : slots_) {
    if (slot.active) continue;
    slot.salt = rng.Generate(kSaltSize);
    const Bytes noise =
        rng.Generate((params_.af_stripes - 1) * master_key.size());
    const Bytes split =
        crypto::AfSplit(master_key, params_.af_stripes, noise);
    slot.wrapped.resize(split.size());
    const Bytes slot_key =
        DeriveSlotKey(passphrase, slot.salt, params_.pbkdf2_iterations);
    CryptSplitMaterial(slot_key, split, slot.wrapped, /*encrypt=*/true);
    slot.active = true;
    return Status::Ok();
  }
  return Status::OutOfSpace("all keyslots in use");
}

Result<Bytes> LuksHeader::TryUnlockSlot(const Keyslot& slot,
                                        const std::string& passphrase) const {
  const Bytes slot_key =
      DeriveSlotKey(passphrase, slot.salt, params_.pbkdf2_iterations);
  Bytes split(slot.wrapped.size());
  CryptSplitMaterial(slot_key, slot.wrapped, split, /*encrypt=*/false);
  Bytes candidate = crypto::AfMerge(split, params_.af_stripes);
  if (!ConstantTimeEqual(
          ComputeDigest(candidate, digest_salt_, params_.pbkdf2_iterations),
          digest_)) {
    return Status::PermissionDenied("wrong passphrase");
  }
  return candidate;
}

Result<Bytes> LuksHeader::Unlock(const std::string& passphrase) const {
  for (const auto& slot : slots_) {
    if (!slot.active) continue;
    auto key = TryUnlockSlot(slot, passphrase);
    if (key.ok()) return key;
  }
  return Status::PermissionDenied("no keyslot matches passphrase");
}

Status LuksHeader::RemoveKeyslot(const std::string& passphrase) {
  for (auto& slot : slots_) {
    if (!slot.active) continue;
    if (TryUnlockSlot(slot, passphrase).ok()) {
      // Destroy the slot's material (AF: partial destruction suffices).
      slot.active = false;
      std::fill(slot.wrapped.begin(), slot.wrapped.end(), 0);
      std::fill(slot.salt.begin(), slot.salt.end(), 0);
      return Status::Ok();
    }
  }
  return Status::NotFound("no keyslot matches passphrase");
}

size_t LuksHeader::ActiveKeyslots() const {
  size_t n = 0;
  for (const auto& slot : slots_) n += slot.active ? 1 : 0;
  return n;
}

Bytes LuksHeader::Serialize() const {
  Bytes out;
  AppendU32Le(out, kHeaderMagic);
  AppendU32Le(out, params_.pbkdf2_iterations);
  AppendU32Le(out, static_cast<uint32_t>(params_.af_stripes));
  AppendBytes(out, digest_salt_);
  AppendBytes(out, digest_);
  for (const auto& slot : slots_) {
    AppendU8(out, slot.active ? 1 : 0);
    if (!slot.active) continue;
    AppendBytes(out, slot.salt);
    AppendU32Le(out, static_cast<uint32_t>(slot.wrapped.size()));
    AppendBytes(out, slot.wrapped);
  }
  return out;
}

Result<LuksHeader> LuksHeader::Deserialize(ByteSpan data) {
  LuksHeader header;
  size_t off = 0;
  auto need = [&](size_t n) { return off + n <= data.size(); };
  if (!need(12)) return Status::Corruption("luks header too short");
  if (LoadU32Le(data.data()) != kHeaderMagic) {
    return Status::Corruption("bad luks magic");
  }
  header.params_.pbkdf2_iterations = LoadU32Le(data.data() + 4);
  header.params_.af_stripes = LoadU32Le(data.data() + 8);
  off = 12;
  // Unlock divides by the stripe count and PBKDF2 needs an iteration; a
  // slot's material must be exactly the AF-split master key, so no XTS unit
  // falls under 16 bytes. Refuse anything else before a cipher sees it.
  if (header.params_.pbkdf2_iterations == 0) {
    return Status::Corruption("luks pbkdf2 iterations");
  }
  // The bound keeps the product within the u32 length field: no overflow.
  const size_t stripes = header.params_.af_stripes;
  if (stripes == 0 || stripes > UINT32_MAX / kMasterKeySize) {
    return Status::Corruption("luks af stripes");
  }
  const size_t wrapped_size = stripes * kMasterKeySize;
  if (!need(kSaltSize + kDigestSize)) return Status::Corruption("luks digest");
  header.digest_salt_.assign(data.begin() + static_cast<long>(off),
                             data.begin() + static_cast<long>(off + kSaltSize));
  off += kSaltSize;
  header.digest_.assign(data.begin() + static_cast<long>(off),
                        data.begin() + static_cast<long>(off + kDigestSize));
  off += kDigestSize;
  for (auto& slot : header.slots_) {
    if (!need(1)) return Status::Corruption("luks slot flag");
    slot.active = data[off++] != 0;
    if (!slot.active) continue;
    if (!need(kSaltSize + 4)) return Status::Corruption("luks slot salt");
    slot.salt.assign(data.begin() + static_cast<long>(off),
                     data.begin() + static_cast<long>(off + kSaltSize));
    off += kSaltSize;
    const uint32_t wrapped_len = LoadU32Le(data.data() + off);
    off += 4;
    if (wrapped_len != wrapped_size || !need(wrapped_len)) {
      return Status::Corruption("luks slot material");
    }
    slot.wrapped.assign(data.begin() + static_cast<long>(off),
                        data.begin() + static_cast<long>(off + wrapped_len));
    off += wrapped_len;
  }
  return header;
}

}  // namespace vde::core
