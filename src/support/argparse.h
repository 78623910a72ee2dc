// Minimal declarative command-line parser shared by the example and
// bench binaries (previously each hand-rolled its own strcmp loop).
// Flags bind to caller-owned storage; `--name value` and `--name=value`
// both work; `--help` is always recognized. Two parse modes:
//
//   parse(argc, argv)        strict — unknown flags are errors, leftover
//                            arguments become positionals.
//   parse_known(argc, argv)  permissive — recognized flags are removed
//                            from argv (argc is updated) and everything
//                            else is left in place, so the remainder can
//                            be handed to another parser (e.g.
//                            google-benchmark).
#ifndef LRT_SUPPORT_ARGPARSE_H_
#define LRT_SUPPORT_ARGPARSE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/status.h"

namespace lrt {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Boolean switch: present -> true (no value consumed).
  void add_flag(std::string name, bool* out, std::string help);
  void add_string(std::string name, std::string* out, std::string help);
  void add_int(std::string name, std::int64_t* out, std::string help);
  /// Value flag that may repeat; each occurrence appends.
  void add_repeated(std::string name, std::vector<std::string>* out,
                    std::string help);
  /// One-line description of the trailing positional arguments, for
  /// usage() only (e.g. "<file.htl>...").
  void set_positional_usage(std::string usage);

  /// Registers a subcommand and returns its nested parser (owned by this
  /// parser; the reference stays valid for this parser's lifetime). With
  /// subcommands registered, strict parse() treats the first
  /// non-flag argument as the command name and hands every later
  /// argument to the nested parser; parent flags may precede it. A
  /// missing or unknown command is a kInvalidArgument error.
  /// parse_known() ignores subcommands, so flat CLIs are unaffected.
  ArgParser& add_subcommand(std::string name, std::string description);

  [[nodiscard]] Status parse(int argc, char** argv);
  [[nodiscard]] Status parse_known(int& argc, char** argv);

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  /// Name of the subcommand selected by the last parse() ("" if none).
  [[nodiscard]] const std::string& selected_subcommand() const {
    return selected_subcommand_;
  }
  /// Nested parser for the selected subcommand, or nullptr.
  [[nodiscard]] ArgParser* subcommand_parser();
  /// True when --help was seen (here or in the selected subcommand);
  /// the caller should print usage() and exit.
  [[nodiscard]] bool help_requested() const;
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kString, kInt, kRepeated };
  struct Option {
    std::string name;  // including the leading "--"
    Kind kind = Kind::kFlag;
    void* target = nullptr;
    std::string help;
  };

  struct Subcommand {
    std::string name;
    std::unique_ptr<ArgParser> parser;
  };

  [[nodiscard]] Status run(int& argc, char** argv, bool strict);
  [[nodiscard]] Option* find(std::string_view name);
  [[nodiscard]] Status store(const Option& option, std::string_view text);

  std::string program_;
  std::string description_;
  std::string positional_usage_;
  std::vector<Option> options_;
  std::vector<Subcommand> subcommands_;
  std::vector<std::string> positionals_;
  std::string selected_subcommand_;
  bool help_requested_ = false;
};

}  // namespace lrt

#endif  // LRT_SUPPORT_ARGPARSE_H_
