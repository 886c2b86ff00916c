#include "src/util/file.h"

#include <cstdio>
#include <memory>

namespace oodgnn {
namespace {

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool WriteStringToFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool written =
      content.empty() ||
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  // fclose flushes the stream's buffer, so a write that fails there
  // (a full disk) is only seen in its result.
  return std::fclose(file) == 0 && written;
}

bool ReadFileToString(const std::string& path, std::string* content) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) return false;
  content->clear();
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file.get())) > 0) {
    content->append(buffer, read);
  }
  return std::ferror(file.get()) == 0;
}

bool FileExists(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  return file != nullptr;
}

}  // namespace oodgnn
