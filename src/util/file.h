#ifndef OODGNN_UTIL_FILE_H_
#define OODGNN_UTIL_FILE_H_

#include <string>

namespace oodgnn {

/// Writes `content` to `path`, replacing any existing file. Returns
/// false on I/O failure, including a failed final flush.
bool WriteStringToFile(const std::string& path, const std::string& content);

/// Reads the whole file into `content`. Returns false if the file
/// cannot be opened or read.
bool ReadFileToString(const std::string& path, std::string* content);

/// True if a file exists and is readable.
bool FileExists(const std::string& path);

}  // namespace oodgnn

#endif  // OODGNN_UTIL_FILE_H_
