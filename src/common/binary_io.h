// Little-endian binary encoding over growable byte buffers, used by the
// cluster-blob serializer and the remote-memory metadata block.
//
// Encoding is explicit (no struct memcpy of host layouts) so blobs are
// portable and versionable. The u32/f32 array helpers are the one exception:
// on a little-endian host the wire bytes already are the host layout, so they
// move whole arrays with one bounds check and one memcpy; other hosts keep
// the per-element loop.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace dhnsw {

/// Appends primitive values to a byte vector in little-endian order.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI32(int32_t v) { PutLE(static_cast<uint32_t>(v)); }
  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutLE(bits);
  }
  void PutBytes(std::span<const uint8_t> bytes) {
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void PutF32Array(std::span<const float> values) { PutArray(values); }
  void PutU32Array(std::span<const uint32_t> values) { PutArray(values); }

  /// Pads with zero bytes until the buffer size is a multiple of `alignment`.
  void AlignTo(size_t alignment) {
    while (out_->size() % alignment != 0) out_->push_back(0);
  }

  size_t size() const noexcept { return out_->size(); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  /// 4-byte elements (u32 / f32).
  template <typename T>
  void PutArray(std::span<const T> values) {
    static_assert(sizeof(T) == 4);
    if constexpr (std::endian::native == std::endian::little) {
      const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
      out_->insert(out_->end(), bytes, bytes + values.size_bytes());
    } else {
      for (T v : values) PutLE(std::bit_cast<uint32_t>(v));
    }
  }
  std::vector<uint8_t>* out_;
};

/// Reads primitives back; every read is bounds-checked and returns a Status
/// on truncation so corrupt remote reads fail loudly instead of UB.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  size_t offset() const noexcept { return pos_; }
  size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ >= data_.size(); }

  Status GetU8(uint8_t* v) { return GetLE(v); }
  Status GetU16(uint16_t* v) { return GetLE(v); }
  Status GetU32(uint32_t* v) { return GetLE(v); }
  Status GetU64(uint64_t* v) { return GetLE(v); }
  Status GetI32(int32_t* v) {
    uint32_t bits = 0;
    DHNSW_RETURN_IF_ERROR(GetLE(&bits));
    *v = static_cast<int32_t>(bits);
    return Status::Ok();
  }
  Status GetF32(float* v) {
    uint32_t bits = 0;
    DHNSW_RETURN_IF_ERROR(GetLE(&bits));
    std::memcpy(v, &bits, sizeof *v);
    return Status::Ok();
  }
  Status GetBytes(std::span<uint8_t> out) {
    if (remaining() < out.size()) return Truncated("bytes");
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return Status::Ok();
  }
  Status GetF32Array(std::span<float> out) { return GetArray(out, "f32 array"); }
  Status GetU32Array(std::span<uint32_t> out) { return GetArray(out, "u32 array"); }
  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::Ok();
  }
  Status AlignTo(size_t alignment) {
    size_t rem = pos_ % alignment;
    return rem == 0 ? Status::Ok() : Skip(alignment - rem);
  }

 private:
  template <typename T>
  Status GetLE(T* v) {
    if (remaining() < sizeof(T)) return Truncated("primitive");
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>(out | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    *v = out;
    return Status::Ok();
  }
  /// 4-byte elements (u32 / f32); one bounds check for the whole array.
  template <typename T>
  Status GetArray(std::span<T> out, const char* what) {
    static_assert(sizeof(T) == 4);
    if (remaining() / 4 < out.size()) return Truncated(what);
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
      pos_ += out.size_bytes();
    } else {
      for (T& v : out) {
        uint32_t bits = 0;
        DHNSW_RETURN_IF_ERROR(GetLE(&bits));
        v = std::bit_cast<T>(bits);
      }
    }
    return Status::Ok();
  }
  Status Truncated(const char* what) {
    return Status::Corruption(std::string("binary read past end while reading ") + what);
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace dhnsw
