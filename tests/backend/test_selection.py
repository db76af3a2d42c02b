"""The numeric-backend selection is gone: there is one numpy kernel
module.  A leftover ``--backend`` argument must fail loudly with a usage
error instead of silently running the kernels it no longer selects."""

import pytest

from repro.cli import main


class TestCLIFlag:
    def test_cli_unknown_backend_exits_2(self, capsys):
        """``repro --backend fused verify`` (valid before) is rejected."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "fused", "verify"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_cli_missing_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--backend"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
