#include "src/nn/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "src/nn/module.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"

namespace oodgnn {

uint64_t Fnv1a64(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

void BinaryPayloadWriter::Append(const void* data, size_t size) {
  payload_.append(static_cast<const char*>(data), size);
}

void BinaryPayloadWriter::PutString(const std::string& value) {
  PutU64(value.size());
  Append(value.data(), value.size());
}

void BinaryPayloadWriter::PutTensor(const Tensor& value) {
  PutU32(static_cast<uint32_t>(value.rows()));
  PutU32(static_cast<uint32_t>(value.cols()));
  Append(value.data(), static_cast<size_t>(value.size()) * sizeof(float));
}

void BinaryPayloadWriter::PutF32Vector(const std::vector<float>& values) {
  PutU64(values.size());
  Append(values.data(), values.size() * sizeof(float));
}

void BinaryPayloadWriter::PutF64Vector(const std::vector<double>& values) {
  PutU64(values.size());
  Append(values.data(), values.size() * sizeof(double));
}

void BinaryPayloadWriter::PutU64Vector(const std::vector<uint64_t>& values) {
  PutU64(values.size());
  Append(values.data(), values.size() * sizeof(uint64_t));
}

bool BinaryPayloadReader::Fetch(void* out, size_t size) {
  if (size > remaining()) return false;
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return true;
}

bool BinaryPayloadReader::GetString(std::string* value) {
  uint64_t length = 0;
  if (!GetU64(&length) || length > remaining()) return false;
  value->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(length));
  pos_ += static_cast<size_t>(length);
  return true;
}

bool BinaryPayloadReader::GetTensor(Tensor* value) {
  uint32_t rows = 0;
  uint32_t cols = 0;
  if (!GetU32(&rows) || !GetU32(&cols)) return false;
  const uint64_t elements = static_cast<uint64_t>(rows) * cols;
  // The element count must both fit the Tensor's int index space and be
  // backed by actual payload bytes before anything is allocated.
  if (rows > static_cast<uint32_t>(std::numeric_limits<int>::max()) ||
      cols > static_cast<uint32_t>(std::numeric_limits<int>::max()) ||
      elements > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
      elements * sizeof(float) > remaining()) {
    return false;
  }
  Tensor result(static_cast<int>(rows), static_cast<int>(cols));
  if (!Fetch(result.data(), static_cast<size_t>(elements) * sizeof(float))) {
    return false;
  }
  *value = std::move(result);
  return true;
}

bool BinaryPayloadReader::GetF32Vector(std::vector<float>* values) {
  uint64_t count = 0;
  if (!GetU64(&count) || count > remaining() / sizeof(float)) return false;
  values->resize(static_cast<size_t>(count));
  return Fetch(values->data(), static_cast<size_t>(count) * sizeof(float));
}

bool BinaryPayloadReader::GetF64Vector(std::vector<double>* values) {
  uint64_t count = 0;
  if (!GetU64(&count) || count > remaining() / sizeof(double)) return false;
  values->resize(static_cast<size_t>(count));
  return Fetch(values->data(), static_cast<size_t>(count) * sizeof(double));
}

bool BinaryPayloadReader::GetU64Vector(std::vector<uint64_t>* values) {
  uint64_t count = 0;
  if (!GetU64(&count) || count > remaining() / sizeof(uint64_t)) return false;
  values->resize(static_cast<size_t>(count));
  return Fetch(values->data(), static_cast<size_t>(count) * sizeof(uint64_t));
}

std::string EncodeFramedHeader(uint32_t magic, uint32_t version,
                               const std::string& payload) {
  BinaryPayloadWriter header;
  header.PutU32(magic);
  header.PutU32(version);
  header.PutU64(payload.size());
  header.PutU64(Fnv1a64(payload.data(), payload.size()));
  return header.payload();
}

const char* ValidateFramedPayload(const std::string& path,
                                  const std::string& bytes,
                                  uint32_t expected_magic,
                                  uint32_t expected_version,
                                  const char* kind, size_t* payload_size) {
  BinaryPayloadReader header(bytes.data(), bytes.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t declared_size = 0;
  uint64_t declared_checksum = 0;
  if (!header.GetU32(&magic) || !header.GetU32(&version) ||
      !header.GetU64(&declared_size) || !header.GetU64(&declared_checksum)) {
    OODGNN_LOG(Error) << path << ": truncated " << kind << " header";
    return nullptr;
  }
  if (magic != expected_magic) {
    OODGNN_LOG(Error) << path << " is not an oodgnn " << kind << " file";
    return nullptr;
  }
  if (version != expected_version) {
    OODGNN_LOG(Error) << path << ": unsupported " << kind << " version "
                      << version;
    return nullptr;
  }
  if (declared_size != header.remaining()) {
    OODGNN_LOG(Error) << path << ": payload is " << header.remaining()
                      << " bytes but the header declares " << declared_size;
    return nullptr;
  }
  const char* payload = bytes.data() + (bytes.size() - header.remaining());
  if (Fnv1a64(payload, header.remaining()) != declared_checksum) {
    OODGNN_LOG(Error) << path << ": checksum mismatch (corrupt file)";
    return nullptr;
  }
  *payload_size = header.remaining();
  return payload;
}

namespace {

constexpr uint32_t kModelMagic = 0x4F4F444D;  // "OODM"
constexpr uint32_t kModelVersion = 1;

/// Best-effort fsync of the directory containing `path` so a rename
/// into it is durable.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Checks one staged tensor list against the module's (rows, cols).
bool MatchesShapes(const std::string& path, const char* kind,
                   const std::vector<Tensor>& staged,
                   const std::vector<std::pair<int, int>>& expected) {
  if (staged.size() != expected.size()) {
    OODGNN_LOG(Error) << path << ": " << staged.size() << " " << kind
                      << " tensors, but the module expects "
                      << expected.size();
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (staged[i].rows() != expected[i].first ||
        staged[i].cols() != expected[i].second) {
      OODGNN_LOG(Error) << path << ": " << kind << " tensor " << i << " is "
                        << staged[i].rows() << "x" << staged[i].cols()
                        << " but the module expects " << expected[i].first
                        << "x" << expected[i].second;
      return false;
    }
  }
  return true;
}

/// Reads a u32 count and that many tensors into `staged`. A count the
/// remaining bytes cannot back (8 shape bytes per tensor) is refused
/// before anything is reserved.
bool StageTensors(BinaryPayloadReader* reader, std::vector<Tensor>* staged) {
  uint32_t count = 0;
  if (!reader->GetU32(&count) ||
      static_cast<uint64_t>(count) * 8 > reader->remaining()) {
    return false;
  }
  staged->resize(count);
  for (Tensor& tensor : *staged) {
    if (!reader->GetTensor(&tensor)) return false;
  }
  return true;
}

}  // namespace

bool WriteFramedFile(const std::string& path, uint32_t magic,
                     uint32_t version, const std::string& payload) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    OODGNN_LOG(Error) << "cannot open " << tmp_path << " for writing";
    return false;
  }
  const std::string header = EncodeFramedHeader(magic, version, payload);
  const bool written =
      std::fwrite(header.data(), 1, header.size(), file) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), file) ==
          payload.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  // fclose runs first so the stream is released on every path.
  if (std::fclose(file) != 0 || !written) {
    OODGNN_LOG(Error) << "cannot write " << tmp_path;
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    OODGNN_LOG(Error) << "cannot rename " << tmp_path << " to " << path;
    return false;
  }
  SyncParentDirectory(path);
  return true;
}

bool MatchesModuleShapes(const std::string& path, const Module& module,
                         const std::vector<Tensor>& params,
                         const std::vector<Tensor>& buffers) {
  std::vector<std::pair<int, int>> param_shapes;
  for (const Variable& param : module.Parameters()) {
    param_shapes.emplace_back(param.value().rows(), param.value().cols());
  }
  std::vector<std::pair<int, int>> buffer_shapes;
  for (const Tensor* buffer : module.Buffers()) {
    buffer_shapes.emplace_back(buffer->rows(), buffer->cols());
  }
  return MatchesShapes(path, "parameter", params, param_shapes) &&
         MatchesShapes(path, "buffer", buffers, buffer_shapes);
}

bool SaveModelState(const std::string& path, const Module& module) {
  const std::vector<Variable> params = module.Parameters();
  const std::vector<Tensor*> buffers = module.Buffers();
  BinaryPayloadWriter writer;
  writer.PutU32(static_cast<uint32_t>(params.size()));
  for (const Variable& param : params) {
    OODGNN_CHECK(param.defined());
    writer.PutTensor(param.value());
  }
  writer.PutU32(static_cast<uint32_t>(buffers.size()));
  for (const Tensor* buffer : buffers) {
    OODGNN_CHECK(buffer != nullptr);
    writer.PutTensor(*buffer);
  }
  return WriteFramedFile(path, kModelMagic, kModelVersion, writer.payload());
}

bool LoadModelState(const std::string& path, Module* module) {
  OODGNN_CHECK(module != nullptr);
  std::string bytes;
  if (!ReadFileToString(path, &bytes)) {
    OODGNN_LOG(Error) << "cannot open " << path << " for reading";
    return false;
  }
  size_t payload_size = 0;
  const char* payload =
      ValidateFramedPayload(path, bytes, kModelMagic, kModelVersion,
                            "model-state", &payload_size);
  if (payload == nullptr) return false;

  BinaryPayloadReader reader(payload, payload_size);
  std::vector<Tensor> staged_params;
  std::vector<Tensor> staged_buffers;
  if (!StageTensors(&reader, &staged_params) ||
      !StageTensors(&reader, &staged_buffers)) {
    OODGNN_LOG(Error) << path << ": truncated or oversized tensor list";
    return false;
  }
  if (!reader.AtEnd()) {
    OODGNN_LOG(Error) << path << ": " << reader.remaining()
                      << " trailing bytes after the last tensor";
    return false;
  }
  if (!MatchesModuleShapes(path, *module, staged_params, staged_buffers)) {
    return false;
  }
  // Everything validated; apply atomically. Variable copies share the
  // underlying node, so writing through `params` updates the module.
  const std::vector<Variable> params = module->Parameters();
  const std::vector<Tensor*> buffers = module->Buffers();
  for (size_t i = 0; i < params.size(); ++i) {
    Variable param = params[i];
    param.mutable_value() = std::move(staged_params[i]);
  }
  for (size_t i = 0; i < buffers.size(); ++i) {
    *buffers[i] = std::move(staged_buffers[i]);
  }
  return true;
}

}  // namespace oodgnn
