#include "serialize/binary_io.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <system_error>
#include <thread>

#include "runtime/parse_int.h"

namespace nnr::serialize {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTempInfix = ".tmp";

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }
  return bytes;
}

bool replace_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = temp_path(path);
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string temp_path(const std::string& path) {
  return path + std::string(kTempInfix) + std::to_string(::getpid()) + "." +
         std::to_string(
             std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

bool is_temp_name(std::string_view name) {
  return name.find(kTempInfix) != std::string_view::npos;
}

bool temp_writer_alive(const std::string& name) {
  const auto pos = name.rfind(kTempInfix);
  if (pos == std::string::npos) return false;
  std::string pid_text = name.substr(pos + kTempInfix.size());
  const auto dot = pid_text.find('.');
  if (dot != std::string::npos) pid_text = pid_text.substr(0, dot);
  const auto pid = runtime::parse_int_strict(pid_text.c_str());
  if (!pid.has_value() || *pid <= 0 || *pid > 0x7FFFFFFF) return false;
  return ::kill(static_cast<pid_t>(*pid), 0) == 0 || errno == EPERM;
}

}  // namespace nnr::serialize
