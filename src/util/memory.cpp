#include "util/memory.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace khss::util {

namespace {

// Read a "<key>:  <value> kB" line from /proc/self/status (Linux only).
// Returns 0 when the file or the key is missing.
std::size_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const std::size_t keylen = std::strlen(key);
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, key, keylen) != 0 || line[keylen] != ':') continue;
    unsigned long long v = 0;
    const char* p = line + keylen + 1;
    while (*p == ' ' || *p == '\t') ++p;
    while (*p >= '0' && *p <= '9') v = v * 10 + static_cast<unsigned>(*p++ - '0');
    kb = static_cast<std::size_t>(v);
    break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::size_t peak_rss_bytes() {
  if (const std::size_t kb = proc_status_kb("VmHWM")) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // kB elsewhere
#endif
  }
#endif
  return 0;
}

}  // namespace khss::util
