#include "src/train/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/nn/serialize.h"
#include "src/util/file.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

namespace oodgnn {
namespace {

constexpr uint32_t kStateMagic = 0x4F4F4443;  // "OODC"
constexpr uint32_t kStateVersion = 1;

std::string BuildPayload(const TrainState& state) {
  BinaryPayloadWriter writer;
  writer.PutString(state.dataset_name);
  writer.PutU32(state.method);
  writer.PutU64(state.seed);
  writer.PutU32(state.epochs);
  writer.PutU32(state.batch_size);
  writer.PutU32(state.next_epoch);
  writer.PutString(state.rng_state);
  writer.PutU64Vector(state.order);
  writer.PutTensorList(state.params);
  writer.PutI64(state.optimizer.step_count);
  writer.PutTensorList(state.optimizer.slots);
  writer.PutTensorList(state.buffers);
  writer.PutU8(state.has_bank ? 1 : 0);
  if (state.has_bank) {
    writer.PutU8(state.bank_initialized ? 1 : 0);
    writer.PutF32Vector(state.bank_gammas);
    for (const Tensor& z : state.bank_z) writer.PutTensor(z);
    for (const Tensor& w : state.bank_w) writer.PutTensor(w);
  }
  writer.PutF64(state.best_valid);
  writer.PutF64(state.train_metric);
  writer.PutF64(state.valid_metric);
  writer.PutF64(state.test_metric);
  writer.PutF64(state.test2_metric);
  writer.PutF64Vector(state.epoch_losses);
  writer.PutF64Vector(state.epoch_decorrelation_losses);
  writer.PutF32Vector(state.final_weights);
  writer.PutU64Vector(state.final_weight_graphs);
  return writer.payload();
}

bool ParsePayload(const std::string& path, BinaryPayloadReader* reader,
                  TrainState* state) {
  uint8_t has_bank = 0;
  if (!reader->GetString(&state->dataset_name) ||
      !reader->GetU32(&state->method) || !reader->GetU64(&state->seed) ||
      !reader->GetU32(&state->epochs) ||
      !reader->GetU32(&state->batch_size) ||
      !reader->GetU32(&state->next_epoch) ||
      !reader->GetString(&state->rng_state) ||
      !reader->GetU64Vector(&state->order)) {
    OODGNN_LOG(Error) << path << ": truncated checkpoint preamble";
    return false;
  }
  if (state->next_epoch > state->epochs) {
    OODGNN_LOG(Error) << path << ": next_epoch " << state->next_epoch
                      << " exceeds declared horizon " << state->epochs;
    return false;
  }
  if (!reader->GetTensorList(&state->params)) {
    OODGNN_LOG(Error) << path << ": truncated or oversized parameter list";
    return false;
  }
  if (!reader->GetI64(&state->optimizer.step_count) ||
      state->optimizer.step_count < 0 ||
      !reader->GetTensorList(&state->optimizer.slots)) {
    OODGNN_LOG(Error) << path << ": malformed optimizer section";
    return false;
  }
  if (!reader->GetTensorList(&state->buffers)) {
    OODGNN_LOG(Error) << path << ": malformed buffer section";
    return false;
  }
  if (!reader->GetU8(&has_bank) || has_bank > 1) {
    OODGNN_LOG(Error) << path << ": malformed bank flag";
    return false;
  }
  state->has_bank = has_bank == 1;
  if (state->has_bank) {
    uint8_t initialized = 0;
    if (!reader->GetU8(&initialized) || initialized > 1 ||
        !reader->GetF32Vector(&state->bank_gammas)) {
      OODGNN_LOG(Error) << path << ": malformed bank header";
      return false;
    }
    state->bank_initialized = initialized == 1;
    const size_t groups = state->bank_gammas.size();
    if (groups * 16 > reader->remaining()) {
      OODGNN_LOG(Error) << path << ": bank group count " << groups
                        << " exceeds the remaining payload";
      return false;
    }
    state->bank_z.resize(groups);
    state->bank_w.resize(groups);
    for (Tensor& z : state->bank_z) {
      if (!reader->GetTensor(&z)) {
        OODGNN_LOG(Error) << path << ": truncated bank representations";
        return false;
      }
    }
    for (Tensor& w : state->bank_w) {
      if (!reader->GetTensor(&w)) {
        OODGNN_LOG(Error) << path << ": truncated bank weights";
        return false;
      }
    }
  }
  if (!reader->GetF64(&state->best_valid) ||
      !reader->GetF64(&state->train_metric) ||
      !reader->GetF64(&state->valid_metric) ||
      !reader->GetF64(&state->test_metric) ||
      !reader->GetF64(&state->test2_metric) ||
      !reader->GetF64Vector(&state->epoch_losses) ||
      !reader->GetF64Vector(&state->epoch_decorrelation_losses) ||
      !reader->GetF32Vector(&state->final_weights) ||
      !reader->GetU64Vector(&state->final_weight_graphs)) {
    OODGNN_LOG(Error) << path << ": truncated bookkeeping section";
    return false;
  }
  if (!reader->AtEnd()) {
    OODGNN_LOG(Error) << path << ": " << reader->remaining()
                      << " trailing payload bytes";
    return false;
  }
  return true;
}

bool CrashInWriteRequested() {
  const char* value = std::getenv("OODGNN_CRASH_IN_WRITE");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

}  // namespace

std::string CheckpointPath(const std::string& dir,
                           const std::string& dataset_name,
                           const std::string& method_name, uint64_t seed) {
  std::string path = dir.empty() ? "." : dir;
  path += '/';
  path += dataset_name.empty() ? "run" : dataset_name;
  path += '_';
  path += method_name;
  path += "_seed";
  path += std::to_string(seed);
  path += ".ckpt";
  return path;
}

bool EnsureDirectory(const std::string& path) {
  if (path.empty() || path == ".") return true;
  std::string prefix;
  size_t begin = 0;
  while (begin <= path.size()) {
    size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    prefix = path.substr(0, end);
    begin = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    struct stat info;
    if (::stat(prefix.c_str(), &info) == 0) {
      if (!S_ISDIR(info.st_mode)) {
        OODGNN_LOG(Error) << prefix << " exists and is not a directory";
        return false;
      }
      continue;
    }
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      OODGNN_LOG(Error) << "cannot create directory " << prefix;
      return false;
    }
  }
  return true;
}

bool SaveTrainState(const std::string& path, const TrainState& state) {
  const std::string payload = BuildPayload(state);
  if (CrashInWriteRequested()) {
    // Fault injection: die with only the header and half the payload in
    // the temp file. The durable snapshot at `path` must survive.
    WriteStringToFile(
        path + ".tmp",
        EncodeFramedHeader(kStateMagic, kStateVersion, payload) +
            payload.substr(0, payload.size() / 2));
    CrashNow("SaveTrainState(OODGNN_CRASH_IN_WRITE)");
  }
  return WriteFramedFile(path, kStateMagic, kStateVersion, payload);
}

bool LoadTrainState(const std::string& path, TrainState* state) {
  std::string bytes;
  if (!ReadFileToString(path, &bytes)) {
    OODGNN_LOG(Error) << "cannot open " << path << " for reading";
    return false;
  }
  size_t payload_size = 0;
  const char* payload =
      ValidateFramedPayload(path, bytes, kStateMagic, kStateVersion,
                            "training checkpoint", &payload_size);
  if (payload == nullptr) return false;
  TrainState parsed;
  BinaryPayloadReader reader(payload, payload_size);
  if (!ParsePayload(path, &reader, &parsed)) return false;
  *state = std::move(parsed);
  return true;
}

bool LoadCheckpointWeights(const std::string& path, Method method,
                           Module* module) {
  TrainState state;
  if (!LoadTrainState(path, &state)) return false;
  if (state.method != static_cast<uint32_t>(method)) {
    OODGNN_LOG(Error) << path << ": checkpoint method " << state.method
                      << " does not match the model's ("
                      << MethodName(method) << ")";
    return false;
  }
  if (!MatchesModuleShapes(path, *module, state.params, state.buffers)) {
    return false;
  }
  ApplyModuleState(state.params, state.buffers, module);
  return true;
}

int CrashAfterEpochFromEnv() {
  const char* value = std::getenv("OODGNN_CRASH_AFTER_EPOCH");
  if (value == nullptr || *value == '\0') return 0;
  return ParseIntOr(value, "OODGNN_CRASH_AFTER_EPOCH", 0);
}

void CrashNow(const char* where) {
  std::fprintf(stderr, "[oodgnn] injected crash: %s\n", where);
  std::fflush(nullptr);
  ::_exit(kCrashExitCode);
}

}  // namespace oodgnn
