"""Benchmark reproducing Table 2: area, bitstream composition, performance.

Paper claims checked (shape, not absolute numbers):

* the TMR versions cost roughly 3-4x the unprotected slices;
* the maximum partition (TMR_p1) is the largest TMR version and the
  unvoted-register version (TMR_p3_nv) the smallest;
* routing bits dominate the per-design configuration bits (~77-83% in the
  paper, ~85-92% in our fabric model);
* the minimum partitions lose little performance, the maximum partition the
  most.
"""

from repro.analysis import resource_table
from repro.experiments import DESIGN_ORDER
from repro.pipeline import resources_analysis


def test_table2_resources(benchmark, implementations):
    table = benchmark.pedantic(
        lambda: resources_analysis(implementations, DESIGN_ORDER),
        rounds=1, iterations=1)

    rows = {name: table[name] for name in DESIGN_ORDER}
    benchmark.extra_info["table2"] = {
        name: {key: rows[name][key]
               for key in ("slices", "routing_bits", "lut_bits", "ff_bits",
                           "fmax_mhz", "area_overhead_vs_standard")}
        for name in DESIGN_ORDER}

    # TMR area overhead is in the 2.5x - 6x band around the paper's ~3.2-3.7x.
    for name in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv"):
        overhead = rows[name]["area_overhead_vs_standard"]
        assert 2.0 <= overhead <= 7.0, (name, overhead)

    # Ordering of the TMR versions by area matches the paper:
    # max partition >= medium >= minimum >= minimum without voted registers.
    assert rows["TMR_p1"]["slices"] >= rows["TMR_p2"]["slices"] >= \
        rows["TMR_p3"]["slices"] >= rows["TMR_p3_nv"]["slices"]

    # Routing bits dominate every design's configuration footprint.
    for name in DESIGN_ORDER:
        assert rows[name]["routing_fraction"] > 0.75, name

    # Performance: no TMR version is faster than the unprotected filter, and
    # the maximum partition (a voter after every component) is the slowest.
    for name in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv"):
        assert rows[name]["fmax_mhz"] <= rows["standard"]["fmax_mhz"] * 1.02
    assert rows["TMR_p1"]["fmax_mhz"] <= rows["TMR_p3"]["fmax_mhz"]


def test_table2_bit_accounting_consistency(benchmark, implementations):
    """The Table 2 bit counts equal the fault-list size used for Table 3."""
    from repro.faults import FaultListManager

    def check():
        rows = resource_table(implementations, order=DESIGN_ORDER)
        consistent = {}
        for row in rows:
            fault_list = FaultListManager(
                implementations[row.design]).build("design")
            consistent[row.design] = (row.total_bits, len(fault_list))
        return consistent

    consistent = benchmark.pedantic(check, rounds=1, iterations=1)
    for design, (table_bits, fault_bits) in consistent.items():
        assert table_bits == fault_bits, design
