#include "src/nn/serialize.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/nn/mlp.h"
#include "src/util/file.h"
#include "src/util/rng.h"

namespace oodgnn {
namespace {

/// Framed-file layout (SaveModelState): u32 magic, u32 version, u64
/// payload size, u64 FNV-1a checksum, then the payload.
constexpr size_t kHeaderBytes = 24;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Recomputes the declared payload size and checksum, so a payload
/// mutation reaches the parser instead of the checksum check.
void RefreshFrame(std::string* bytes) {
  const uint64_t payload_size = bytes->size() - kHeaderBytes;
  std::memcpy(&(*bytes)[8], &payload_size, sizeof(payload_size));
  const uint64_t checksum =
      Fnv1a64(bytes->data() + kHeaderBytes, payload_size);
  std::memcpy(&(*bytes)[16], &checksum, sizeof(checksum));
}

/// Payload offsets of the structural words of `module`'s model-state
/// file: the parameter count, every tensor's rows and cols, and the
/// buffer count.
std::vector<size_t> CountAndShapeWordOffsets(const Module& module) {
  std::vector<size_t> offsets;
  size_t at = 0;
  auto walk = [&](const std::vector<const Tensor*>& tensors) {
    offsets.push_back(at);
    at += sizeof(uint32_t);
    for (const Tensor* tensor : tensors) {
      offsets.push_back(at);
      offsets.push_back(at + sizeof(uint32_t));
      at += 2 * sizeof(uint32_t) +
            static_cast<size_t>(tensor->size()) * sizeof(float);
    }
  };
  std::vector<const Tensor*> params;
  for (const Variable& param : module.Parameters()) {
    params.push_back(&param.value());
  }
  walk(params);
  const std::vector<Tensor*> buffers = module.Buffers();
  walk(std::vector<const Tensor*>(buffers.begin(), buffers.end()));
  return offsets;
}

TEST(SerializeTest, MissingFileFailsGracefully) {
  Rng rng(7);
  Mlp mlp({2, 2}, &rng);
  EXPECT_FALSE(LoadModelState(TempPath("does_not_exist.bin"), &mlp));
  EXPECT_FALSE(SaveModelState("/nonexistent_dir/x.bin", mlp));
}

TEST(SerializeTest, FailedSaveLeavesThePreviousFileIntact) {
  Rng rng(13);
  Mlp first({3, 4, 2}, &rng);
  const std::string path = TempPath("durable.bin");
  ASSERT_TRUE(SaveModelState(path, first));
  std::string saved;
  ASSERT_TRUE(ReadFileToString(path, &saved));

  // A directory where the temp file goes makes the next save fail.
  const std::string tmp_path = path + ".tmp";
  std::remove(tmp_path.c_str());
  ASSERT_EQ(::mkdir(tmp_path.c_str(), 0755), 0);
  Mlp second({3, 4, 2}, &rng);
  EXPECT_FALSE(SaveModelState(path, second));
  ::rmdir(tmp_path.c_str());

  std::string after;
  ASSERT_TRUE(ReadFileToString(path, &after));
  EXPECT_EQ(after, saved);
  Mlp restored({3, 4, 2}, &rng);
  EXPECT_TRUE(LoadModelState(path, &restored));
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsWrongMagic) {
  const std::string path = TempPath("garbage.bin");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const char junk[32] = "this is not a model state";
  std::fwrite(junk, 1, sizeof(junk), file);
  std::fclose(file);
  Rng rng(8);
  Mlp mlp({2, 2}, &rng);
  EXPECT_FALSE(LoadModelState(path, &mlp));
}

TEST(SerializeTest, ShapeMismatchFailsWithoutModifyingModule) {
  Rng rng(9);
  Mlp small({2, 3}, &rng);
  const std::string path = TempPath("small.bin");
  ASSERT_TRUE(SaveModelState(path, small));
  Rng rng_b(11);
  Mlp bigger({2, 4}, &rng_b);
  const std::string before_path = TempPath("bigger_before.bin");
  const std::string after_path = TempPath("bigger_after.bin");
  ASSERT_TRUE(SaveModelState(before_path, bigger));
  EXPECT_FALSE(LoadModelState(path, &bigger));
  ASSERT_TRUE(SaveModelState(after_path, bigger));
  std::string before;
  std::string after;
  ASSERT_TRUE(ReadFileToString(before_path, &before));
  ASSERT_TRUE(ReadFileToString(after_path, &after));
  EXPECT_EQ(before, after);
}

TEST(SerializeTest, ParameterCountMismatchFails) {
  Rng rng(10);
  Mlp two_layers({2, 3, 1}, &rng);
  const std::string path = TempPath("two.bin");
  ASSERT_TRUE(SaveModelState(path, two_layers));
  Mlp one_layer({2, 1}, &rng);
  EXPECT_FALSE(LoadModelState(path, &one_layer));
}

TEST(SerializeTest, RejectsHeaderDeclaringMoreTensorsThanFileHolds) {
  Rng rng(12);
  Mlp mlp({3, 4, 2}, &rng);
  const std::string path = TempPath("inflated.bin");
  ASSERT_TRUE(SaveModelState(path, mlp));
  std::string good;
  ASSERT_TRUE(ReadFileToString(path, &good));

  // A parameter count far beyond what the file can back; the loader
  // must refuse before allocating.
  std::string inflated = good;
  const uint32_t huge = 0x7FFFFFFF;
  std::memcpy(&inflated[kHeaderBytes], &huge, sizeof(huge));
  RefreshFrame(&inflated);
  ASSERT_TRUE(WriteStringToFile(path, inflated));
  EXPECT_FALSE(LoadModelState(path, &mlp));

  // The right count, but the payload ends after the first tensor.
  const std::vector<Variable> params = mlp.Parameters();
  ASSERT_GT(params.size(), 1u);
  std::string cut = good.substr(
      0, kHeaderBytes + sizeof(uint32_t) + 2 * sizeof(uint32_t) +
             static_cast<size_t>(params[0].value().size()) * sizeof(float));
  RefreshFrame(&cut);
  ASSERT_TRUE(WriteStringToFile(path, cut));
  EXPECT_FALSE(LoadModelState(path, &mlp));
}

TEST(SerializeTest, FuzzCorruptedModelStateFilesFailCleanly) {
  // Batch norm gives the file a buffer section as well.
  Rng rng(13);
  Mlp mlp({3, 4, 2}, &rng, /*batch_norm=*/true);
  ASSERT_FALSE(mlp.Buffers().empty());
  const std::string good_path = TempPath("fuzz_good.bin");
  ASSERT_TRUE(SaveModelState(good_path, mlp));
  std::string good;
  ASSERT_TRUE(ReadFileToString(good_path, &good));
  ASSERT_GT(good.size(), kHeaderBytes);
  const std::string path = TempPath("fuzz_mutant.bin");

  // Every truncation fails: the header or the declared payload size no
  // longer matches the bytes present.
  for (size_t len = 0; len < good.size(); len += 3) {
    ASSERT_TRUE(WriteStringToFile(path, good.substr(0, len)));
    EXPECT_FALSE(LoadModelState(path, &mlp)) << "truncation at " << len;
  }

  // Every single-byte flip fails: the magic, version and size checks
  // catch the header, and the checksum covers the whole payload.
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::string mutated = good;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0xFF);
    ASSERT_TRUE(WriteStringToFile(path, mutated));
    EXPECT_FALSE(LoadModelState(path, &mlp)) << "flip at " << offset;
  }

  // 0xFF over each aligned word of the early payload, with size and
  // checksum recomputed. A stomped float is a valid file with other
  // values and may load; a stomped count or shape word must fail. No
  // mutant may crash or over-allocate.
  const std::vector<size_t> structural = CountAndShapeWordOffsets(mlp);
  const size_t payload_size = good.size() - kHeaderBytes;
  for (size_t offset = 0;
       offset + sizeof(uint32_t) <= std::min(payload_size, size_t{256});
       offset += sizeof(uint32_t)) {
    std::string mutated = good;
    std::memset(&mutated[kHeaderBytes + offset], 0xFF, sizeof(uint32_t));
    RefreshFrame(&mutated);
    ASSERT_TRUE(WriteStringToFile(path, mutated));
    Rng scratch_rng(14);
    Mlp scratch({3, 4, 2}, &scratch_rng, /*batch_norm=*/true);
    const bool loaded = LoadModelState(path, &scratch);
    if (std::find(structural.begin(), structural.end(), offset) !=
        structural.end()) {
      EXPECT_FALSE(loaded) << "stomp on count/shape word at " << offset;
    }
  }

  // Appended trailing garbage is rejected, whether or not the header
  // is updated to declare it.
  std::string trailing = good + std::string(7, '\xAB');
  ASSERT_TRUE(WriteStringToFile(path, trailing));
  EXPECT_FALSE(LoadModelState(path, &mlp));
  RefreshFrame(&trailing);
  ASSERT_TRUE(WriteStringToFile(path, trailing));
  EXPECT_FALSE(LoadModelState(path, &mlp));

  // The pristine file still loads after all of the above.
  EXPECT_TRUE(LoadModelState(good_path, &mlp));
}

}  // namespace
}  // namespace oodgnn
