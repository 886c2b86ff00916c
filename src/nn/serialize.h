#ifndef OODGNN_NN_SERIALIZE_H_
#define OODGNN_NN_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

class Module;

/// FNV-1a 64-bit checksum, used to detect checkpoint corruption.
uint64_t Fnv1a64(const void* data, size_t size);

/// Appends fixed-width little-endian scalars and length-prefixed
/// containers to an in-memory payload. The byte layout is mirrored by
/// BinaryPayloadReader; checkpoint files are a small framed header
/// (magic, version, payload size, checksum) around one payload.
class BinaryPayloadWriter {
 public:
  void PutU8(uint8_t value) { Append(&value, sizeof(value)); }
  void PutU32(uint32_t value) { Append(&value, sizeof(value)); }
  void PutU64(uint64_t value) { Append(&value, sizeof(value)); }
  void PutI64(int64_t value) { Append(&value, sizeof(value)); }
  void PutF32(float value) { Append(&value, sizeof(value)); }
  void PutF64(double value) { Append(&value, sizeof(value)); }

  /// u64 length followed by the raw bytes.
  void PutString(const std::string& value);

  /// u32 rows, u32 cols, then rows*cols raw float32 values.
  void PutTensor(const Tensor& value);

  /// u64 count followed by the raw elements.
  void PutF32Vector(const std::vector<float>& values);
  void PutF64Vector(const std::vector<double>& values);
  void PutU64Vector(const std::vector<uint64_t>& values);

  const std::string& payload() const { return payload_; }

 private:
  void Append(const void* data, size_t size);

  std::string payload_;
};

/// Bounds-checked reader over an untrusted byte buffer. Every getter
/// returns false once the buffer is exhausted, and every
/// length-prefixed read validates the declared count against the bytes
/// actually remaining *before* allocating, so hostile headers cannot
/// trigger huge allocations or out-of-bounds reads.
class BinaryPayloadReader {
 public:
  BinaryPayloadReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  bool GetU8(uint8_t* value) { return Fetch(value, sizeof(*value)); }
  bool GetU32(uint32_t* value) { return Fetch(value, sizeof(*value)); }
  bool GetU64(uint64_t* value) { return Fetch(value, sizeof(*value)); }
  bool GetI64(int64_t* value) { return Fetch(value, sizeof(*value)); }
  bool GetF32(float* value) { return Fetch(value, sizeof(*value)); }
  bool GetF64(double* value) { return Fetch(value, sizeof(*value)); }

  bool GetString(std::string* value);
  bool GetTensor(Tensor* value);
  bool GetF32Vector(std::vector<float>* values);
  bool GetF64Vector(std::vector<double>* values);
  bool GetU64Vector(std::vector<uint64_t>* values);

  size_t remaining() const { return size_ - pos_; }

  /// True once every payload byte has been consumed — trailing garbage
  /// marks a malformed file.
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Fetch(void* out, size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Writes a complete forward-pass snapshot of a module: trainable
/// parameters AND non-trainable buffers (batch-norm running
/// statistics), both in registration order, framed with a magic,
/// version, payload size and FNV-1a checksum. This is the serving
/// format: it captures everything an eval-mode forward reads, so an
/// InferenceEngine restored from it reproduces the training process's
/// eval outputs bitwise. Returns false on I/O failure.
bool SaveModelState(const std::string& path, const Module& module);

/// Restores a snapshot written by SaveModelState into an identically
/// constructed module. The checksum, every declared count and every
/// shape are validated against the actual bytes and the module before
/// the module is touched, and no allocation exceeds the bytes present.
/// Any mismatch, truncation or malformed byte returns false with a
/// logged reason and leaves the module untouched; it never aborts.
bool LoadModelState(const std::string& path, Module* module);

}  // namespace oodgnn

#endif  // OODGNN_NN_SERIALIZE_H_
