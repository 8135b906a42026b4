import faults


def test_every_fault_text_is_found_once():
    # each fault of the audit edits the real sources in memory: a guard
    # line that moved or changed fails here, not in the audit's long run
    for name, path, old, new in faults.FAULTS:
        source = (faults.ROOT / path).read_text()
        assert faults.apply(source, old, new, name) != source, name
