#include "drum/util/flags.hpp"

#include <cstdio>
#include <cstdlib>

namespace drum::util {

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "?") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: positional arguments not supported: %s\n",
                   program_.c_str(), arg.c_str());
      std::exit(2);
    }
    std::string name, value;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      name = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare flag => boolean true
      }
    }
    values_[name] = value;
    consumed_[name] = false;
  }
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def,
                            const std::string& help) {
  help_lines_.push_back("  --" + name + " (int, default " +
                        std::to_string(def) + "): " + help);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double def,
                         const std::string& help) {
  help_lines_.push_back("  --" + name + " (double, default " +
                        std::to_string(def) + "): " + help);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def,
                     const std::string& help) {
  help_lines_.push_back("  --" + name + " (bool, default " +
                        (def ? "true" : "false") + "): " + help);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::get_string(const std::string& name, const std::string& def,
                              const std::string& help) {
  help_lines_.push_back("  --" + name + " (string, default \"" + def +
                        "\"): " + help);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

std::vector<std::size_t> Flags::get_size_list(const std::string& name,
                                              const std::string& def,
                                              const std::string& help) {
  const std::string text = get_string(name, def, help);
  std::vector<std::size_t> out;
  for (std::size_t begin = 0, end = 0; end != std::string::npos;
       begin = end + 1) {
    end = text.find(',', begin);
    const std::string item = text.substr(begin, end - begin);
    if (item.empty() || item.find_first_not_of("0123456789") != item.npos) {
      std::fprintf(stderr, "%s: --%s wants comma-separated counts: %s\n",
                   program_.c_str(), name.c_str(), text.c_str());
      std::exit(2);
    }
    out.push_back(std::strtoull(item.c_str(), nullptr, 10));
  }
  return out;
}

void Flags::done() {
  if (help_requested_) {
    std::fprintf(stderr, "usage: %s [flags]\n", program_.c_str());
    for (const auto& line : help_lines_) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::exit(0);
  }
  for (const auto& [name, used] : consumed_) {
    if (!used) {
      std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
                   program_.c_str(), name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace drum::util
