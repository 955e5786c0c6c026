import itertools

from mobitrace.model import MeasurementRecord, RadioTechnology, SampleSeries
from mobitrace.reports import Columns

_counter = itertools.count()


def make_record(**overrides) -> MeasurementRecord:
    """Record factory with sane defaults for tests."""
    base = dict(
        record_id=f"t{next(_counter):06d}",
        user_id="u1",
        timestamp=1_451_865_600_000,
        download_kbps=1000.0,
        upload_kbps=200.0,
        manufacturer="Acme",
        model="One",
        os_name="android",
        os_version="6.0",
        network_operator="OpA",
        subscriber_operator="OpA",
        technology=RadioTechnology.HSPA,
    )
    base.update(overrides)
    return MeasurementRecord(**base)


def make_series(values, interval_ms=500) -> SampleSeries:
    return SampleSeries(interval_ms=interval_ms, values=tuple(values))


def columns(records, pools=None) -> Columns:
    """The report columns of records, in order; pools[i], when given, is the pool of records[i]."""
    packed = Columns.empty()
    for record, pool in zip(records, pools or [None] * len(records)):
        packed.append(record, pool)
    return packed


_ACCEPTANCE_RESULTS = {}  # test name -> PASS, FAIL or SKIP, one per criterion


def pytest_runtest_logreport(report):
    """A criterion fails if its setup, call or teardown fails, and is skipped if its setup or call
    skips; it passes only by its call."""
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.failed:
        _ACCEPTANCE_RESULTS[name] = "FAIL"
    elif report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"
    elif report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{outcome}  {name}")
