#ifndef OODGNN_OBS_JOURNAL_H_
#define OODGNN_OBS_JOURNAL_H_

#include <cstdio>
#include <mutex>
#include <string>

namespace oodgnn {
namespace obs {

/// Append-only JSONL run journal: one self-contained JSON object per
/// line, flushed per write so a crashed run keeps every completed
/// record. Writers pass finished objects (see JsonObjectWriter);
/// records are distinguished by their "event" field by convention
/// ("epoch", "resume", "run_summary").
class RunJournal {
 public:
  /// Opens `path` for writing, truncating any previous journal. ok()
  /// reports whether the open succeeded; writes to a failed journal
  /// are dropped.
  explicit RunJournal(std::string path);
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Appends `json_object` plus a newline. Thread-safe.
  void WriteLine(const std::string& json_object);

 private:
  std::string path_;
  std::mutex mu_;
  std::FILE* file_;  // guarded by mu_
};

/// The process-wide journal configured via --trace-json (or the
/// OODGNN_TRACE_JSON environment variable, read on first access).
/// Returns nullptr while journaling is off — instrumented code guards
/// on that, so an unjournaled run allocates and formats nothing.
RunJournal* GlobalJournal();

/// Opens (replacing any previous) the global journal at `path`; an
/// empty path closes it.
void OpenGlobalJournal(const std::string& path);
void CloseGlobalJournal();

}  // namespace obs
}  // namespace oodgnn

#endif  // OODGNN_OBS_JOURNAL_H_
