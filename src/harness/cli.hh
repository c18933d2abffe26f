/**
 * @file
 * Minimal command-line option parsing for the soefair tools.
 *
 * Grammar: positional arguments and `--key value` / `--flag`
 * options may interleave; `--` ends option parsing. Typed getters
 * provide defaults and fatal() on malformed values, so tools get
 * consistent error behaviour for free.
 */

#ifndef SOEFAIR_HARNESS_CLI_HH
#define SOEFAIR_HARNESS_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace soefair
{
namespace harness
{

class CliOptions
{
  public:
    /**
     * Parse argv (excluding argv[0]).
     * @param known_flags Option names that take NO value; everything
     *        else starting with "--" consumes the next token.
     */
    CliOptions(int argc, const char *const *argv,
               const std::vector<std::string> &known_flags = {});

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positionals;
    }

    bool hasFlag(const std::string &name) const;
    bool hasOption(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &def) const;
    /** Every occurrence of a repeatable option, in argv order
     *  (single-value getters return the last occurrence). */
    std::vector<std::string> getStrings(const std::string &name)
        const;
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t def) const;
    double getDouble(const std::string &name, double def) const;

    /** Names of the options and flags given that are not in
     *  `known` (typo detection; see checkCliOptions). */
    std::vector<std::string> unknownOptions(
        const std::vector<std::string> &known) const;

  private:
    std::vector<std::string> positionals;
    std::map<std::string, std::string> options;
    /** All (name, value) options in argv order; duplicates kept. */
    std::vector<std::pair<std::string, std::string>> orderedOptions;
    std::vector<std::string> flags;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_CLI_HH
