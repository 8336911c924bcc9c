// fwlint CLI.
//
//   fwlint [--root=DIR] [--check=a,b,...] [--list-checks] [files...]
//
// With no explicit files, scans src/ bench/ tests/ examples/ under --root
// (default: current directory) for *.cc *.h *.cpp *.hpp, in sorted order so
// output is stable. Diagnostics go to stdout as "path:line: [check] message".
// Exits 0 when clean, 1 when any diagnostic is found, 2 on a usage or IO
// error. A finding is accepted only by a per-line fwlint:allow(<check>).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/fwlint/fwlint.h"

namespace {

namespace fs = std::filesystem;

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

// Repo-relative path with forward slashes, for allowlists and layering.
std::string Relativize(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  return (ec ? p : rel).generic_string();
}

int Usage(std::ostream& os, int code) {
  os << "usage: fwlint [--root=DIR] [--check=a,b,...] [--list-checks] [files...]\n"
     << "checks:";
  for (const std::string& c : fwlint::AllChecks()) {
    os << " " << c;
  }
  os << "\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::set<std::string> checks;
  bool check_flag_seen = false;
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--check=", 0) == 0) {
      check_flag_seen = true;
      std::stringstream ss(arg.substr(8));
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (name.empty()) {
          continue;
        }
        bool known = false;
        for (const std::string& c : fwlint::AllChecks()) {
          known = known || c == name;
        }
        if (!known) {
          std::cerr << "fwlint: unknown check '" << name << "'\n";
          return Usage(std::cerr, 2);
        }
        checks.insert(name);
      }
    } else if (arg == "--list-checks") {
      for (const std::string& c : fwlint::AllChecks()) {
        std::cout << c << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(std::cout, 0);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "fwlint: unknown flag '" << arg << "'\n";
      return Usage(std::cerr, 2);
    } else {
      explicit_files.push_back(arg);
    }
  }
  if (check_flag_seen && checks.empty()) {
    std::cerr << "fwlint: --check= given but no check names\n";
    return Usage(std::cerr, 2);
  }

  std::vector<fs::path> files;
  if (!explicit_files.empty()) {
    for (const std::string& f : explicit_files) {
      files.emplace_back(f);
    }
  } else {
    for (const char* dir : {"src", "bench", "tests", "examples"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base)) {
        continue;
      }
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (entry.is_regular_file() && HasLintableExtension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
    std::sort(files.begin(), files.end());
  }

  if (files.empty()) {
    std::cerr << "fwlint: no input files under " << root << "\n";
    return 2;
  }

  fwlint::Analyzer analyzer;
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "fwlint: cannot read " << p << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    analyzer.AddFile(Relativize(p, root), buf.str());
  }

  const std::vector<fwlint::Diagnostic> diags = analyzer.Run(checks);
  for (const fwlint::Diagnostic& d : diags) {
    std::cout << d.ToString() << "\n";
  }
  if (!diags.empty()) {
    std::cout << "fwlint: " << diags.size() << " diagnostic" << (diags.size() == 1 ? "" : "s")
              << " across " << files.size() << " files\n";
    return 1;
  }
  std::cout << "fwlint OK: " << files.size() << " files clean\n";
  return 0;
}
