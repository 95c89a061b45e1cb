module mnemo/bench

go 1.22

require mnemo v0.0.0

replace mnemo => ../
