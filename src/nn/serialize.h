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

  /// u32 count followed by that many PutTensor records.
  void PutTensorList(const std::vector<Tensor>& values);

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
  /// Refuses a count the remaining bytes cannot back (8 shape bytes
  /// per tensor) before anything is reserved.
  bool GetTensorList(std::vector<Tensor>* values);
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

/// A framed file is a 24-byte header (u32 magic, u32 version, u64
/// payload size, u64 FNV-1a checksum of the payload) followed by the
/// payload. The "OODC" training checkpoint (SaveTrainState) is the one
/// format framed this way; it is also what the inference engine loads.
/// This returns the header that frames `payload`.
std::string EncodeFramedHeader(uint32_t magic, uint32_t version,
                               const std::string& payload);

/// Validates the framing of a whole file's `bytes`: magic, version,
/// declared payload size against the bytes actually present, and
/// checksum. Returns a view of the payload inside `bytes` and sets
/// `payload_size`; returns null on any mismatch, with the reason
/// logged against `path` and `kind`. Nothing of the payload is
/// interpreted here.
const char* ValidateFramedPayload(const std::string& path,
                                  const std::string& bytes,
                                  uint32_t expected_magic,
                                  uint32_t expected_version,
                                  const char* kind, size_t* payload_size);

/// Durably writes one framed file (header from EncodeFramedHeader, then
/// `payload`): the bytes go to `path + ".tmp"`, which is flushed,
/// fsynced and closed, then renamed over `path`, and the directory is
/// fsynced. A failed or interrupted save leaves any previous file at
/// `path` intact. Returns false with a logged reason on I/O failure.
bool WriteFramedFile(const std::string& path, uint32_t magic,
                     uint32_t version, const std::string& payload);

/// Checks tensors staged for `module` against its parameters and
/// buffers (registration order): the same counts, and each tensor the
/// same shape. Logs the first mismatch against `path` and returns
/// false, so a loader can refuse a file before applying anything.
bool MatchesModuleShapes(const std::string& path, const Module& module,
                         const std::vector<Tensor>& params,
                         const std::vector<Tensor>& buffers);

/// Copies `params` and `buffers` into `module`'s parameters and
/// buffers (registration order). The caller has checked them with
/// MatchesModuleShapes; a count mismatch aborts.
void ApplyModuleState(const std::vector<Tensor>& params,
                      const std::vector<Tensor>& buffers, Module* module);

}  // namespace oodgnn

#endif  // OODGNN_NN_SERIALIZE_H_
