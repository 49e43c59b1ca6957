"""Tests for the primitive cell library, LUT INITs and the cell-level
reference models."""

import pytest

from repro.cells import (INIT_AND2, INIT_BUF, INIT_INV, INIT_MAJ3,
                         INIT_MUX2, INIT_VOTER, INIT_XOR2, INIT_XOR3,
                         build_cell_library, cell_info, init_from_function,
                         logic, lut_cell_for_inputs, lut_input_count,
                         shared_cell_library)
from repro.netlist.ir import Definition, Direction

from oracles.evaluate import (combinational_output, init_from_truth_table,
                              majority, sequential_next_state, truth_table)


class TestLogic:
    def test_basic_gates(self):
        assert logic.and_(1, 1) == 1
        assert logic.and_(1, 0) == 0
        assert logic.or_(0, 0) == 0
        assert logic.or_(0, 1) == 1
        assert logic.not_(0) == 1

    def test_unknown_propagation(self):
        x = logic.UNKNOWN
        assert logic.and_(x, 0) == 0          # controlled by the zero
        assert logic.and_(x, 1) == x
        assert logic.or_(x, 1) == 1
        assert logic.or_(x, 0) == x
        assert logic.not_(x) == x

    def test_majority_masks_single_unknown(self):
        x = logic.UNKNOWN
        assert majority(1, 1, x) == 1
        assert majority(0, x, 0) == 0
        assert majority(x, x, 1) == x

    def test_majority_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert majority(a, b, c) == \
                        (1 if a + b + c >= 2 else 0)

    def test_mux_with_unknown_select(self):
        x = logic.UNKNOWN
        assert logic.mux(x, 1, 1) == 1   # both branches agree
        assert logic.mux(x, 0, 1) == x

    def test_resolve_drivers(self):
        assert logic.resolve_drivers([]) == logic.UNKNOWN
        assert logic.resolve_drivers([1]) == 1
        assert logic.resolve_drivers([1, 1]) == 1
        assert logic.resolve_drivers([1, 0]) == logic.UNKNOWN

    def test_int_bit_conversions(self):
        assert logic.int_to_bits(5, 4) == [1, 0, 1, 0]
        assert logic.bits_to_int([1, 0, 1, 0]) == 5
        assert logic.int_to_bits(-1, 4) == [1, 1, 1, 1]
        with pytest.raises(ValueError):
            logic.bits_to_int([logic.UNKNOWN])


class TestLutEval:
    def test_lut_eval_known(self):
        assert logic.lut_eval(INIT_AND2, [1, 1], 2) == 1
        assert logic.lut_eval(INIT_AND2, [1, 0], 2) == 0
        assert logic.lut_eval(INIT_XOR3, [1, 1, 1], 3) == 1

    def test_lut_eval_unknown_masked(self):
        x = logic.UNKNOWN
        # AND with a controlling zero: result known despite the X
        assert logic.lut_eval(INIT_AND2, [0, x], 2) == 0
        # XOR with an X: unknown
        assert logic.lut_eval(INIT_XOR2, [1, x], 2) == x
        # Majority voter with one X and two agreeing inputs: known
        assert logic.lut_eval(INIT_MAJ3, [1, 1, x], 3) == 1

    def test_lut_eval_wrong_arity(self):
        with pytest.raises(ValueError):
            logic.lut_eval(INIT_AND2, [1], 2)


class TestInits:
    def test_init_from_function_round_trip(self):
        init = init_from_function(lambda a, b: a | b, 2)
        assert truth_table(init, 2) == [0, 1, 1, 1]

    def test_init_from_truth_table(self):
        init = init_from_truth_table([0, 1, 1, 0], 2)
        assert init == INIT_XOR2
        with pytest.raises(ValueError):
            init_from_truth_table([0, 1], 2)

    def test_voter_is_majority(self):
        assert INIT_VOTER == INIT_MAJ3
        for address in range(8):
            bits = [(address >> k) & 1 for k in range(3)]
            expected = 1 if sum(bits) >= 2 else 0
            assert (INIT_MAJ3 >> address) & 1 == expected

    def test_mux_init(self):
        # I2 is the select: address = i0 + 2*i1 + 4*sel
        for i0 in (0, 1):
            for i1 in (0, 1):
                assert (INIT_MUX2 >> (i0 + 2 * i1)) & 1 == i0
                assert (INIT_MUX2 >> (i0 + 2 * i1 + 4)) & 1 == i1

    def test_buffer_and_inverter(self):
        assert truth_table(INIT_BUF, 1) == [0, 1]
        assert truth_table(INIT_INV, 1) == [1, 0]


class TestCellLibrary:
    def test_all_cells_have_info(self):
        library = build_cell_library()
        for name in library.definitions:
            assert cell_info(name).name == name

    def test_lut_classification(self):
        assert lut_input_count("LUT3") == 3
        with pytest.raises(ValueError):
            lut_input_count("FD")

    def test_lut_cell_for_inputs(self):
        library = shared_cell_library()
        assert lut_cell_for_inputs(library, 2).name == "LUT2"
        with pytest.raises(ValueError):
            lut_cell_for_inputs(library, 5)

    def test_port_directions(self):
        library = build_cell_library()
        lut4 = library.definitions["LUT4"]
        assert lut4.ports["O"].direction is Direction.OUTPUT
        assert lut4.ports["I3"].direction is Direction.INPUT
        fd = library.definitions["FD"]
        assert set(fd.ports) == {"C", "D", "Q"}

    def test_shared_library_is_singleton(self):
        assert shared_cell_library() is shared_cell_library()


class TestEvaluate:
    def _instance(self, cell, **props):
        library = shared_cell_library()
        top = Definition("top")
        inst = top.add_instance(library.definitions[cell], "u")
        inst.properties.update(props)
        return inst

    def test_lut_output(self):
        inst = self._instance("LUT2", INIT=INIT_AND2)
        assert combinational_output(inst, {"I0": 1, "I1": 1}) == 1
        assert combinational_output(inst, {"I0": 1, "I1": 0}) == 0

    def test_constants_and_buffers(self):
        assert combinational_output(self._instance("GND"), {}) == 0
        assert combinational_output(self._instance("VCC"), {}) == 1
        assert combinational_output(self._instance("BUFG"), {"I": 1}) == 1

    def test_ff_returns_none_for_combinational(self):
        inst = self._instance("FD")
        assert combinational_output(inst, {}) is None

    def test_fd_next_state(self):
        inst = self._instance("FD")
        assert sequential_next_state(inst, {"D": 1}, 0) == 1

    def test_fdre_enable_and_reset(self):
        inst = self._instance("FDRE")
        assert sequential_next_state(inst, {"D": 1, "CE": 0, "R": 0}, 0) == 0
        assert sequential_next_state(inst, {"D": 1, "CE": 1, "R": 0}, 0) == 1
        assert sequential_next_state(inst, {"D": 1, "CE": 1, "R": 1}, 1) == 0

    def test_fdce_clear(self):
        inst = self._instance("FDCE")
        assert sequential_next_state(inst, {"D": 1, "CE": 1, "CLR": 1},
                                     1) == 0

    def test_string_init_accepted(self):
        inst = self._instance("LUT2", INIT="0x8")
        assert combinational_output(inst, {"I0": 1, "I1": 1}) == 1
