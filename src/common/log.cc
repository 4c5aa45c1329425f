#include "common/log.h"

#include <atomic>
#include <cstdio>

#include "common/types.h"

namespace kivati {
namespace {

// Atomic so parallel experiment workers may log while another host thread
// adjusts verbosity (the level is a monotonic filter, ordering is moot).
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void LogMessage(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) {
    return;
  }
  std::fprintf(stderr, "[kivati %s] %s\n", LevelTag(level), message.c_str());
}

const char* ToString(AccessType type) {
  return type == AccessType::kRead ? "read" : "write";
}

const char* ToString(WatchType type) {
  switch (type) {
    case WatchType::kNone:
      return "none";
    case WatchType::kRead:
      return "read";
    case WatchType::kWrite:
      return "write";
    case WatchType::kReadWrite:
      return "read/write";
  }
  return "?";
}

}  // namespace kivati
