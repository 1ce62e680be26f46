"""Look up one entry of a check report, shared by the tests."""


def entry(report, check_id):
    return {e.check_id: e for e in report.entries}[check_id]
