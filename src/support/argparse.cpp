#include "support/argparse.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

namespace lrt {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(std::string name, bool* out, std::string help) {
  options_.push_back(
      {std::move(name), Kind::kFlag, out, std::move(help)});
}

void ArgParser::add_string(std::string name, std::string* out,
                           std::string help) {
  options_.push_back(
      {std::move(name), Kind::kString, out, std::move(help)});
}

void ArgParser::add_int(std::string name, std::int64_t* out,
                        std::string help) {
  options_.push_back({std::move(name), Kind::kInt, out, std::move(help)});
}

void ArgParser::add_repeated(std::string name,
                             std::vector<std::string>* out,
                             std::string help) {
  options_.push_back(
      {std::move(name), Kind::kRepeated, out, std::move(help)});
}

void ArgParser::set_positional_usage(std::string usage) {
  positional_usage_ = std::move(usage);
}

ArgParser& ArgParser::add_subcommand(std::string name,
                                     std::string description) {
  subcommands_.push_back(
      {name, std::make_unique<ArgParser>(program_ + " " + name,
                                         std::move(description))});
  return *subcommands_.back().parser;
}

ArgParser* ArgParser::subcommand_parser() {
  for (Subcommand& sub : subcommands_)
    if (sub.name == selected_subcommand_) return sub.parser.get();
  return nullptr;
}

bool ArgParser::help_requested() const {
  if (help_requested_) return true;
  for (const Subcommand& sub : subcommands_)
    if (sub.name == selected_subcommand_ &&
        sub.parser->help_requested())
      return true;
  return false;
}

ArgParser::Option* ArgParser::find(std::string_view name) {
  for (Option& option : options_)
    if (option.name == name) return &option;
  return nullptr;
}

Status ArgParser::store(const Option& option, std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  errno = 0;
  switch (option.kind) {
    case Kind::kFlag:
      break;  // handled by the caller
    case Kind::kString:
      *static_cast<std::string*>(option.target) = value;
      break;
    case Kind::kRepeated:
      static_cast<std::vector<std::string>*>(option.target)
          ->push_back(value);
      break;
    case Kind::kInt: {
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        return InvalidArgumentError(option.name + " expects an integer, got '" +
                                    value + "'");
      *static_cast<std::int64_t*>(option.target) = parsed;
      break;
    }
  }
  return Status::Ok();
}

Status ArgParser::run(int& argc, char** argv, bool strict) {
  positionals_.clear();
  selected_subcommand_.clear();
  help_requested_ = false;
  int write = 1;
  Status failure = Status::Ok();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!failure.ok()) {
      argv[write++] = argv[i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (strict && !subcommands_.empty() && !arg.empty() &&
        arg[0] != '-') {
      // First bare word selects the command; everything after it
      // belongs to the nested parser (argv[i] fills its program slot).
      for (Subcommand& sub : subcommands_) {
        if (sub.name == arg) {
          selected_subcommand_ = sub.name;
          const int remaining = argc - i;
          argc = write;
          return sub.parser->parse(remaining, argv + i);
        }
      }
      failure = InvalidArgumentError("unknown command '" +
                                     std::string(arg) + "'");
      continue;
    }
    std::string_view name = arg;
    std::string_view inline_value;
    bool has_inline_value = false;
    const std::size_t eq = arg.find('=');
    if (arg.size() >= 2 && arg[0] == '-' && eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
    }
    Option* option = find(name);
    if (option == nullptr) {
      if (strict && arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        failure = InvalidArgumentError("unknown flag '" +
                                       std::string(arg) + "'");
        continue;
      }
      argv[write++] = argv[i];
      if (strict) positionals_.emplace_back(arg);
      continue;
    }
    if (option->kind == Kind::kFlag) {
      if (has_inline_value) {
        failure = InvalidArgumentError(option->name +
                                       " does not take a value");
        continue;
      }
      *static_cast<bool*>(option->target) = true;
      continue;
    }
    std::string_view value;
    if (has_inline_value) {
      value = inline_value;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      failure =
          InvalidArgumentError(option->name + " expects a value");
      continue;
    }
    const Status stored = store(*option, value);
    if (!stored.ok()) failure = stored;
  }
  argc = write;
  if (strict && !subcommands_.empty() && failure.ok() &&
      !help_requested_) {
    return InvalidArgumentError(program_ + " expects a command");
  }
  return failure;
}

Status ArgParser::parse(int argc, char** argv) {
  // Strict parsing never hands argv back, so consume a scratch count.
  int scratch = argc;
  return run(scratch, argv, /*strict=*/true);
}

Status ArgParser::parse_known(int& argc, char** argv) {
  return run(argc, argv, /*strict=*/false);
}

std::string ArgParser::usage() const {
  std::string out = "usage: " + program_;
  if (!subcommands_.empty()) out += " COMMAND";
  for (const Option& option : options_) {
    out += " [" + option.name;
    if (option.kind != Kind::kFlag) out += " VALUE";
    out += "]";
    if (option.kind == Kind::kRepeated) out += "...";
  }
  if (!positional_usage_.empty()) out += " " + positional_usage_;
  out += "\n";
  if (!description_.empty()) out += "\n" + description_ + "\n";
  if (!options_.empty()) out += "\n";
  for (const Option& option : options_) {
    out += "  " + option.name;
    if (option.kind != Kind::kFlag) out += " VALUE";
    if (!option.help.empty()) {
      if (out.back() != '\n') out += "\n";
      out += "      " + option.help + "\n";
    } else {
      out += "\n";
    }
  }
  if (!subcommands_.empty()) {
    out += "\ncommands:\n";
    for (const Subcommand& sub : subcommands_) {
      out += "  " + sub.name;
      if (!sub.parser->description_.empty()) {
        out += "\n      " + sub.parser->description_ + "\n";
      } else {
        out += "\n";
      }
    }
  }
  return out;
}

}  // namespace lrt
