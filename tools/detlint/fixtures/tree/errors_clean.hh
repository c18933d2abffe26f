// ERR-003 tree fixture: a miniature src/sim/errors.hh whose SimError
// classes supply the exit codes the CLI cross-check knows.
#ifndef DETLINT_FIXTURE_TREE_ERRORS_HH
#define DETLINT_FIXTURE_TREE_ERRORS_HH

namespace soefair
{

class SimError
{
  public:
    virtual ~SimError() = default;
    int exitCode() const;
};

class InputError : public SimError
{
  public:
    static constexpr int code = 10;
};

class QuotaError : public SimError
{
  public:
    static constexpr int code = 15;
};

template <typename E, typename... Args>
[[noreturn]] void raiseError(Args &&...args);

} // namespace soefair

#endif // DETLINT_FIXTURE_TREE_ERRORS_HH
