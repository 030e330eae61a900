// Tiny command-line flag parser shared by the bench binaries and examples.
// Supports "--name value" and "--name=value"; unknown flags are an error so
// typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drum::util {

class Flags {
 public:
  /// Parses argv. Exits with a usage message on unknown or malformed flags
  /// (bench binaries treat flag typos as fatal). "--help" prints registered
  /// descriptions and exits 0.
  Flags(int argc, char** argv);

  /// Registration: each get_* both registers the flag (for --help) and
  /// returns its parsed value or the default.
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help);
  double get_double(const std::string& name, double def,
                    const std::string& help);
  bool get_bool(const std::string& name, bool def, const std::string& help);
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help);
  /// A comma-separated list of counts ("1,2,4"); exits on an item that is
  /// not a decimal number.
  std::vector<std::size_t> get_size_list(const std::string& name,
                                         const std::string& def,
                                         const std::string& help);

  /// Call after all get_* registrations: errors out on flags that were
  /// passed but never registered, and handles --help.
  void done();

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;
};

}  // namespace drum::util
